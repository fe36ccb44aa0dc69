// Package fractional computes the query-dependent quantities the paper's
// bounds are stated in: the optimal fractional edge covering number ρ*,
// the optimal fractional edge packing number τ*, their dual fractional
// vertex covers, the edge quasi-packing number ψ* of [19], and the AGM
// bound. All numbers are exact rationals produced by the internal/lp
// simplex, so structural facts the paper relies on — half-integrality of
// degree-two solutions (Lemma 5.3), integrality of acyclic covers
// (Lemma A.2), τ* + ρ* = |E| for degree-two joins — are checked with
// exact comparisons.
package fractional

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"

	"coverpack/internal/hypergraph"
	"coverpack/internal/lp"
)

// Assignment is a fractional weighting of the relations (edges) of a
// query, e.g. an edge cover or packing.
type Assignment struct {
	Query   *hypergraph.Query
	Weights []*big.Rat // indexed by edge
	Number  *big.Rat   // Σ_e Weights[e]
}

// Support returns the edges with nonzero weight.
func (a *Assignment) Support() hypergraph.EdgeSet {
	var es hypergraph.EdgeSet
	for i, w := range a.Weights {
		if w.Sign() != 0 {
			es.Add(i)
		}
	}
	return es
}

// IsIntegral reports whether every weight is an integer.
func (a *Assignment) IsIntegral() bool {
	for _, w := range a.Weights {
		if !w.IsInt() {
			return false
		}
	}
	return true
}

// IsHalfIntegral reports whether every weight is a multiple of 1/2.
func (a *Assignment) IsHalfIntegral() bool {
	for _, w := range a.Weights {
		// Normalized, so a multiple of 1/2 has denominator 1 or 2.
		if !w.IsInt() && w.Denom().Cmp(two) != 0 {
			return false
		}
	}
	return true
}

func (a *Assignment) String() string {
	s := ""
	for i, w := range a.Weights {
		if w.Sign() == 0 {
			continue
		}
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%s=%s", a.Query.Edge(i).Name, w.RatString())
	}
	return fmt.Sprintf("[%s] number=%s", s, a.Number.RatString())
}

// VertexAssignment is a fractional weighting of the attributes, e.g. a
// fractional vertex cover (Section 5.2).
type VertexAssignment struct {
	Query   *hypergraph.Query
	Weights map[int]*big.Rat // attribute id -> weight
	Number  *big.Rat
}

// Value returns the weight of attribute a (zero if absent).
func (v *VertexAssignment) Value(a int) *big.Rat {
	if w, ok := v.Weights[a]; ok {
		return w
	}
	return new(big.Rat)
}

// one and two are shared read-only constants.
var (
	one = lp.Int(1)
	two = big.NewInt(2)
)

// unitObjective returns an n-variable problem with objective Σx.
func unitObjective(n int, maximize bool) *lp.Problem {
	p := lp.NewProblem(n, maximize)
	for i := 0; i < n; i++ {
		p.SetObjective(i, one)
	}
	return p
}

// addIncidenceRows appends one row per attribute to an edge-variable
// problem: coefficient 1 for each edge containing the attribute,
// right-hand side 1.
func addIncidenceRows(p *lp.Problem, q *hypergraph.Query, sense lp.Sense) {
	m := q.NumEdges()
	coeffs := make([]int64, m)
	for _, a := range q.AllVars().Attrs() {
		for e := 0; e < m; e++ {
			coeffs[e] = 0
			if q.EdgeVars(e).Contains(a) {
				coeffs[e] = 1
			}
		}
		p.AddDense(coeffs, sense, 1)
	}
}

// edgeProblem builds the shared LP skeleton: one variable per edge, one
// row per attribute with coefficient 1 for each edge containing it.
func edgeProblem(q *hypergraph.Query, maximize bool, sense lp.Sense) *lp.Problem {
	p := unitObjective(q.NumEdges(), maximize)
	addIncidenceRows(p, q, sense)
	return p
}

// solveOptimal solves p and insists on an optimum; what names the
// program in the error.
func solveOptimal(p *lp.Problem, what string, q *hypergraph.Query) (*lp.Solution, error) {
	sol, err := lp.Solve(p)
	if err != nil {
		return nil, fmt.Errorf("fractional: %s of %s: %w", what, q.Name(), err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("fractional: %s of %s: %v", what, q.Name(), sol.Status)
	}
	return sol, nil
}

// EdgeCover computes an optimal fractional edge covering: minimize Σf(e)
// subject to Σ_{e ∋ v} f(e) ≥ 1 for every attribute v. Its number is ρ*.
func EdgeCover(q *hypergraph.Query) (*Assignment, error) {
	sol, err := solveOptimal(edgeProblem(q, false, lp.GE), "edge cover", q)
	if err != nil {
		return nil, err
	}
	return &Assignment{Query: q, Weights: sol.X, Number: sol.Value}, nil
}

// EdgePacking computes an optimal fractional edge packing: maximize Σf(e)
// subject to Σ_{e ∋ v} f(e) ≤ 1 for every attribute v. Its number is τ*.
func EdgePacking(q *hypergraph.Query) (*Assignment, error) {
	sol, err := solveOptimal(edgeProblem(q, true, lp.LE), "edge packing", q)
	if err != nil {
		return nil, err
	}
	return &Assignment{Query: q, Weights: sol.X, Number: sol.Value}, nil
}

// attrPositions returns the query's attributes in order and the LP
// column of each.
func attrPositions(q *hypergraph.Query) ([]int, map[int]int) {
	attrs := q.AllVars().Attrs()
	pos := make(map[int]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	return attrs, pos
}

// vertexLP solves the program with one variable per attribute and one
// row Σ_{v ∈ e} x_v (sense) 1 per edge, optimizing Σx_v.
func vertexLP(q *hypergraph.Query, maximize bool, sense lp.Sense, what string) (*VertexAssignment, error) {
	attrs, pos := attrPositions(q)
	n := len(attrs)
	if n == 0 {
		return nil, fmt.Errorf("fractional: %s of %s: no attributes", what, q.Name())
	}
	p := unitObjective(n, maximize)
	coeffs := make([]int64, n)
	for e := 0; e < q.NumEdges(); e++ {
		clear(coeffs)
		for _, a := range q.EdgeVars(e).Attrs() {
			coeffs[pos[a]] = 1
		}
		p.AddDense(coeffs, sense, 1)
	}
	sol, err := solveOptimal(p, what, q)
	if err != nil {
		return nil, err
	}
	weights := make(map[int]*big.Rat, n)
	for i, a := range attrs {
		weights[a] = sol.X[i]
	}
	return &VertexAssignment{Query: q, Weights: weights, Number: sol.Value}, nil
}

// VertexPacking computes an optimal fractional vertex packing: maximize
// Σy_v subject to Σ_{v ∈ e} y_v ≤ 1 for every edge e. By LP duality its
// number equals ρ*. It is the recipe for AGM-tight worst-case instances:
// give attribute v a domain of N^{y_v} values and make every relation the
// Cartesian product of its attribute domains — each relation then has at
// most N tuples while the output reaches N^{ρ*}.
func VertexPacking(q *hypergraph.Query) (*VertexAssignment, error) {
	return vertexLP(q, true, lp.LE, "vertex packing")
}

// Rho computes ρ*, the optimal fractional edge covering number.
func Rho(q *hypergraph.Query) (*big.Rat, error) {
	a, err := EdgeCover(q)
	if err != nil {
		return nil, err
	}
	return a.Number, nil
}

// Tau computes τ*, the optimal fractional edge packing number.
func Tau(q *hypergraph.Query) (*big.Rat, error) {
	a, err := EdgePacking(q)
	if err != nil {
		return nil, err
	}
	return a.Number, nil
}

// Psi computes ψ*, the optimal fractional edge quasi-packing number of
// [19] (footnote 2): the maximum τ*(Q_x) over all residual queries Q_x,
// x ⊆ V, where the residual drops emptied relations and duplicates.
// The enumeration is exponential in |V|; query sizes are constants (data
// complexity), and Psi refuses queries with more than PsiMaxAttrs
// attributes to keep accidental blowups loud.
func Psi(q *hypergraph.Query) (*big.Rat, error) { return psi(q, nil) }

// PsiMaxAttrs bounds the residual enumeration in Psi.
const PsiMaxAttrs = 22

// psi is Psi for a caller that may already hold tau = τ*(Q), the
// residual of x = ∅.
//
// A residual is handled as one uint32 attribute mask per edge, and
// most residuals never reach the solver. Three rules, each exact:
//
//   - Only the distinct inclusion-minimal edges of Q_x are packed. If
//     e ⊆ e′, moving e′'s weight onto e keeps the total and raises no
//     attribute's load (those of e carry what they carried, those of
//     e′∖e carry less), so some optimal packing is zero on e′ and
//     dropping e′ keeps τ*. The opposite absorption — dropping e
//     because a larger e′ contains it, as Reduce does for covers — is
//     unsound here: in the residual {A}, {A,B}, {B} of a path the two
//     singletons pack 2, the edge that contains both packs 1.
//   - τ* is a function of that edge family, so a family already solved
//     in this call is skipped.
//   - τ* ≤ min(#edges, #attributes): every edge has an attribute whose
//     load is at most 1, and summing the loads of all attributes
//     counts every edge's weight at least once. A residual whose bound
//     does not exceed the best τ* so far is skipped.
func psi(q *hypergraph.Query, tau *big.Rat) (*big.Rat, error) {
	attrs, pos := attrPositions(q)
	k := len(attrs)
	if k > PsiMaxAttrs {
		return nil, fmt.Errorf("fractional: psi of %s: %d attributes exceeds limit %d",
			q.Name(), k, PsiMaxAttrs)
	}
	edges := make([]uint32, 0, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		var mask uint32
		for _, a := range q.EdgeVars(e).Attrs() {
			mask |= 1 << uint(pos[a])
		}
		if mask != 0 {
			edges = append(edges, mask)
		}
	}

	best, first := new(big.Rat), uint32(0)
	if tau != nil {
		best.Set(tau)
		first = 1
	}
	bestFloor := floor(best)
	var (
		all  = uint32(1)<<uint(k) - 1
		fam  = make([]uint32, 0, len(edges))
		key  = make([]byte, 0, 4*len(edges))
		seen = make(map[string]struct{})
		prob = lp.IntProblem{Maximize: true}
		val  = new(big.Rat)
	)
	for x := first; x <= all; x++ {
		fam = minimalEdges(fam[:0], edges, all&^x)
		var covered uint32
		for _, e := range fam {
			covered |= e
		}
		if int64(min(len(fam), bits.OnesCount32(covered))) <= bestFloor {
			continue
		}
		slices.Sort(fam)
		key = key[:0]
		for _, e := range fam {
			key = binary.LittleEndian.AppendUint32(key, e)
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}

		packingProblem(&prob, fam, covered)
		st, err := prob.Value(val)
		if err != nil {
			return nil, fmt.Errorf("fractional: psi of %s: %w", q.Name(), err)
		}
		if st != lp.Optimal {
			return nil, fmt.Errorf("fractional: psi of %s: residual packing is %v", q.Name(), st)
		}
		if val.Cmp(best) > 0 {
			best.Set(val)
			bestFloor = floor(best)
		}
	}
	return best, nil
}

// floor returns ⌊r⌋ for a small nonnegative r.
func floor(r *big.Rat) int64 {
	return new(big.Int).Quo(r.Num(), r.Denom()).Int64()
}

// minimalEdges appends to dst the distinct inclusion-minimal nonempty
// sets among e∩keep, e ∈ edges. dst is an antichain throughout, so a
// new set that is strictly inside one member contains no other, and
// the in-place filter below is never abandoned halfway.
func minimalEdges(dst, edges []uint32, keep uint32) []uint32 {
next:
	for _, e := range edges {
		e &= keep
		if e == 0 {
			continue
		}
		n := 0
		for _, f := range dst {
			if f&e == f {
				continue next // f ⊆ e: e is a duplicate or not minimal
			}
			if f&e != e {
				dst[n] = f // e ⊄ f: f stays
				n++
			}
		}
		dst = append(dst[:n], e)
	}
	return dst
}

// packingProblem fills p with the edge-packing LP of the family: one
// variable per edge, one row Σ_{e ∋ a} f(e) ≤ 1 per covered attribute.
// p's slices are reused across calls.
func packingProblem(p *lp.IntProblem, fam []uint32, covered uint32) {
	n := len(fam)
	p.NumVars = n
	p.Objective = p.Objective[:0]
	for range fam {
		p.Objective = append(p.Objective, 1)
	}
	p.Coeffs, p.Sense, p.RHS = p.Coeffs[:0], p.Sense[:0], p.RHS[:0]
	for ; covered != 0; covered &= covered - 1 {
		a := covered & -covered
		for _, e := range fam {
			var c int64
			if e&a != 0 {
				c = 1
			}
			p.Coeffs = append(p.Coeffs, c)
		}
		p.Sense = append(p.Sense, lp.LE)
		p.RHS = append(p.RHS, 1)
	}
}

// AGMBound returns the Atserias–Grohe–Marx bound on the join output size
// for the given per-relation sizes: min over fractional edge covers f of
// Π_e |R(e)|^{f(e)}. It solves the weighted cover LP (minimize
// Σ f(e)·log|R(e)|) and returns the bound as a float64. Relations with
// zero size force a zero bound.
func AGMBound(q *hypergraph.Query, sizes []int) (float64, error) {
	if len(sizes) != q.NumEdges() {
		return 0, fmt.Errorf("fractional: AGM of %s: %d sizes for %d relations",
			q.Name(), len(sizes), q.NumEdges())
	}
	for _, s := range sizes {
		if s == 0 {
			return 0, nil
		}
		if s < 0 {
			return 0, fmt.Errorf("fractional: AGM of %s: negative size", q.Name())
		}
	}
	m := q.NumEdges()
	p := lp.NewProblem(m, false)
	for e := 0; e < m; e++ {
		// Rational approximation of log2(size) at 2^-20 precision is
		// far finer than any feasible-basis distinction for these LPs.
		lg := math.Log2(float64(sizes[e]))
		p.SetObjective(e, new(big.Rat).SetFloat64(math.Round(lg*(1<<20))/(1<<20)))
	}
	addIncidenceRows(p, q, lp.GE)
	sol, err := solveOptimal(p, "AGM", q)
	if err != nil {
		return 0, err
	}
	bound := 1.0
	for e := 0; e < m; e++ {
		w, _ := sol.X[e].Float64()
		bound *= math.Pow(float64(sizes[e]), w)
	}
	return bound, nil
}

// Numbers bundles the three query quantities of Table 1.
type Numbers struct {
	Rho *big.Rat // optimal fractional edge covering number ρ*
	Tau *big.Rat // optimal fractional edge packing number τ*
	Psi *big.Rat // optimal fractional edge quasi-packing number ψ*
}

// Compute returns ρ*, τ* and ψ* for the query.
func Compute(q *hypergraph.Query) (Numbers, error) {
	rho, err := Rho(q)
	if err != nil {
		return Numbers{}, err
	}
	tau, err := Tau(q)
	if err != nil {
		return Numbers{}, err
	}
	psi, err := psi(q, tau)
	if err != nil {
		return Numbers{}, err
	}
	return Numbers{Rho: rho, Tau: tau, Psi: psi}, nil
}
