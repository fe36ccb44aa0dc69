package fractional

import (
	"fmt"
	"math/big"

	"coverpack/internal/hypergraph"
	"coverpack/internal/lp"
)

// Witness is the certificate that a degree-two join is
// edge-packing-provable (Definition 5.4): an optimal fractional vertex
// covering x that is constant-small, together with the induced set
// E' = {e : Σ_{v∈e} x_v > 1} of probabilistic edges, such that every
// edge has at most one neighbor in E'.
//
// The witness drives the Section 5 lower bound: the hard instance gives
// attribute v a domain of N^{x_v} values, builds every edge outside E'
// as a deterministic Cartesian product of exactly N tuples, and samples
// each edge in E' with probability 1/N^{Σx−1}, yielding the
// Ω(N/p^{1/τ*}) bound of Theorem 7.
type Witness struct {
	Provable bool
	// Reason explains a negative result.
	Reason string
	// Cover is the witnessing vertex covering (nil when not provable).
	Cover *VertexAssignment
	// ProbEdges is E', the probabilistically constructed relations.
	ProbEdges hypergraph.EdgeSet
	// Epsilon is a constant with max_v x_v <= 1 − ε.
	Epsilon *big.Rat
}

// EdgePackingProvable decides Definition 5.4 for a query: reduced,
// degree-two, odd-cycle-free, and admitting a witnessing vertex cover.
// The witness search enumerates candidate E' sets (the query has
// constant size) and solves, for each structurally valid candidate, the
// exact LP
//
//	maximize t
//	s.t.  Σ_{v∈e} x_v  =  1       for e ∉ E'
//	      Σ_{v∈e} x_v  ≥  1 + t   for e ∈ E'
//	      Σ_v x_v      =  τ*      (optimality of the cover)
//	      x_v + t      ≤  1       (constant-small with ε = t)
//	      x, t ≥ 0
//
// A positive optimum certifies the candidate; candidates are tried in
// increasing size so the reported E' is minimal.
func EdgePackingProvable(q *hypergraph.Query) (*Witness, error) {
	return EdgePackingProvableTau(q, nil)
}

// EdgePackingProvableTau is EdgePackingProvable for a caller that
// already holds tau = τ*(q); nil computes it.
func EdgePackingProvableTau(q *hypergraph.Query, tau *big.Rat) (*Witness, error) {
	if !q.IsReduced() {
		return &Witness{Reason: "query is not reduced"}, nil
	}
	if !q.IsDegreeTwo() {
		return &Witness{Reason: "query is not degree-two"}, nil
	}
	if q.HasOddCycle() {
		return &Witness{Reason: "query has an odd-length cycle"}, nil
	}
	if tau == nil {
		var err error
		if tau, err = Tau(q); err != nil {
			return nil, err
		}
	}

	m := q.NumEdges()
	candidates := hypergraph.SubsetsOf(q.AllEdges().Edges())
	// Increasing-size order keeps E' minimal and tries the all-
	// deterministic candidate (E' = ∅) first.
	for size := 0; size <= m; size++ {
		for _, cand := range candidates {
			if cand.Len() != size {
				continue
			}
			if !neighborCondition(q, cand) {
				continue
			}
			cover, eps, ok, err := solveWitness(q, cand, tau)
			if err != nil {
				return nil, err
			}
			if ok {
				return &Witness{
					Provable:  true,
					Cover:     cover,
					ProbEdges: cand,
					Epsilon:   eps,
				}, nil
			}
		}
	}
	return &Witness{Reason: "no optimal constant-small vertex cover matches any E' candidate"}, nil
}

// neighborCondition checks |Γ(e) ∩ E'| ≤ 1 for every edge e, where
// Γ(e) is the set of edges sharing an attribute with e (excluding e).
func neighborCondition(q *hypergraph.Query, probe hypergraph.EdgeSet) bool {
	m := q.NumEdges()
	for e := 0; e < m; e++ {
		cnt := 0
		for f := 0; f < m; f++ {
			if f == e || !probe.Contains(f) {
				continue
			}
			if q.EdgeVars(e).Intersects(q.EdgeVars(f)) {
				cnt++
			}
		}
		if cnt > 1 {
			return false
		}
	}
	return true
}

// solveWitness solves the witness LP for one candidate E'.
func solveWitness(q *hypergraph.Query, probe hypergraph.EdgeSet, tau *big.Rat) (*VertexAssignment, *big.Rat, bool, error) {
	attrs, pos := attrPositions(q)
	n := len(attrs)
	// Variables: x_0..x_{n-1}, then t.
	p := lp.NewProblem(n+1, true)
	p.SetObjective(n, one)

	row := make([]int64, n+1)
	for e := 0; e < q.NumEdges(); e++ {
		clear(row)
		for _, a := range q.EdgeVars(e).Attrs() {
			row[pos[a]] = 1
		}
		if probe.Contains(e) {
			row[n] = -1 // Σx − t ≥ 1
			p.AddDense(row, lp.GE, 1)
		} else {
			p.AddDense(row, lp.EQ, 1)
		}
	}
	// Optimality: Σ x_v = τ*.
	for i := range row {
		row[i] = 1
	}
	row[n] = 0
	p.AddDenseRat(row, lp.EQ, tau)
	// Constant-small: x_v + t ≤ 1.
	clear(row)
	row[n] = 1
	for i := 0; i < n; i++ {
		row[i] = 1
		p.AddDense(row, lp.LE, 1)
		row[i] = 0
	}

	sol, err := lp.Solve(p)
	if err != nil {
		return nil, nil, false, fmt.Errorf("fractional: witness LP for %s: %w", q.Name(), err)
	}
	if sol.Status != lp.Optimal || sol.Value.Sign() <= 0 {
		return nil, nil, false, nil
	}
	weights := make(map[int]*big.Rat, n)
	num := new(big.Rat)
	for i, a := range attrs {
		weights[a] = sol.X[i]
		num.Add(num, sol.X[i])
	}
	cover := &VertexAssignment{Query: q, Weights: weights, Number: num}
	return cover, sol.X[n], true, nil
}

// DegreeTwoFacts verifies the structural facts of Lemma 5.3 for a
// reduced degree-two join and returns them for reporting: τ* = |E|/2 ≥ ρ*,
// τ* + ρ* = |E|, and half-integrality (integrality when odd-cycle-free)
// of the optimal packing and covering.
type DegreeTwoFacts struct {
	Tau, Rho         *big.Rat
	SumIsEdgeCount   bool // τ* + ρ* = |E|
	TauAtLeastHalfE  bool // τ* >= |E|/2
	RhoAtMostHalfE   bool // ρ* <= |E|/2
	PackingHalfInt   bool
	CoverHalfInt     bool
	PackingIntegral  bool
	CoverIntegral    bool
	OddCycleFree     bool
	IntegralIfNoCycl bool // odd-cycle-free ⇒ integral optima found
}

// CheckDegreeTwo computes the Lemma 5.3 facts. It errors if the query is
// not a reduced degree-two join.
func CheckDegreeTwo(q *hypergraph.Query) (*DegreeTwoFacts, error) {
	if !q.IsReduced() || !q.IsDegreeTwo() {
		return nil, fmt.Errorf("fractional: %s is not a reduced degree-two join", q.Name())
	}
	pack, err := EdgePacking(q)
	if err != nil {
		return nil, err
	}
	cover, err := EdgeCover(q)
	if err != nil {
		return nil, err
	}
	e := lp.Int(int64(q.NumEdges()))
	halfE := new(big.Rat).Mul(e, big.NewRat(1, 2))
	sum := new(big.Rat).Add(pack.Number, cover.Number)
	f := &DegreeTwoFacts{
		Tau:             pack.Number,
		Rho:             cover.Number,
		SumIsEdgeCount:  sum.Cmp(e) == 0,
		TauAtLeastHalfE: pack.Number.Cmp(halfE) >= 0,
		RhoAtMostHalfE:  cover.Number.Cmp(halfE) <= 0,
		PackingHalfInt:  pack.IsHalfIntegral(),
		CoverHalfInt:    cover.IsHalfIntegral(),
		PackingIntegral: pack.IsIntegral(),
		CoverIntegral:   cover.IsIntegral(),
		OddCycleFree:    !q.HasOddCycle(),
	}
	f.IntegralIfNoCycl = !f.OddCycleFree || (f.PackingIntegral && f.CoverIntegral)
	return f, nil
}
