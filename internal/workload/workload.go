// Package workload generates the database instances every experiment in
// EXPERIMENTS.md runs on: uniform and Zipf-skewed random instances,
// matchings, AGM-tight worst-case instances for upper-bound benchmarks,
// and the probabilistic hard instances of Section 5's lower bounds.
//
// All randomness is seeded (math/rand/v2 PCG), so every experiment is
// reproducible; tests verify the concentration properties the paper's
// probabilistic constructions rely on.
package workload

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"

	"coverpack/internal/fractional"
	"coverpack/internal/hashtab"
	"coverpack/internal/hypergraph"
	"coverpack/internal/relation"
)

// rng returns a deterministic PCG generator for a seed.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Uniform fills each relation with n distinct tuples drawn uniformly
// from a domain of dom values per attribute. It panics if a relation's
// attribute space cannot hold n distinct tuples.
func Uniform(q *hypergraph.Query, n int, dom int64, seed uint64) *relation.Instance {
	r := rng(seed)
	in := relation.NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		arity := q.EdgeVars(e).Len()
		space := math.Pow(float64(dom), float64(arity))
		if float64(n) > space {
			panic(fmt.Sprintf("workload: %s edge %s: %d tuples exceed domain space %.0f",
				q.Name(), q.Edge(e).Name, n, space))
		}
		seen := hashtab.New(arity, n)
		idx := identity(arity)
		t := make(relation.Tuple, arity)
		for seen.Len() < n {
			for j := range t {
				t[j] = r.Int64N(dom)
			}
			if _, dup := seen.Insert(t, idx); !dup {
				in.Rel(e).Add(t)
			}
		}
		seen.Release()
	}
	return in
}

// Zipf fills each relation with n tuples whose attribute values follow a
// Zipf(s) distribution over a domain of dom values (rank 1 most likely).
// Duplicates are kept out; if the skew is too extreme to find n distinct
// tuples the domain tail fills in deterministically.
func Zipf(q *hypergraph.Query, n int, dom int64, s float64, seed uint64) *relation.Instance {
	r := rng(seed)
	sampler := newZipfSampler(dom, s)
	in := relation.NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		arity := q.EdgeVars(e).Len()
		seen := hashtab.New(arity, n)
		idx := identity(arity)
		attempts := 0
		var fill int64
		t := make(relation.Tuple, arity)
		for seen.Len() < n {
			if attempts < 20*n {
				for j := range t {
					t[j] = sampler.sample(r)
				}
			} else {
				// Deterministic fill to guarantee termination.
				v := fill
				for j := range t {
					t[j] = v % dom
					v /= dom
				}
				fill++
			}
			attempts++
			if _, dup := seen.Insert(t, idx); !dup {
				in.Rel(e).Add(t)
			}
		}
		seen.Release()
	}
	return in
}

// zipfSampler draws from {0..dom-1} with P(v) ∝ 1/(v+1)^s via inverse
// CDF binary search.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(dom int64, s float64) *zipfSampler {
	cdf := make([]float64, dom)
	sum := 0.0
	for i := int64(0); i < dom; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) sample(r *rand.Rand) int64 {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo)
}

// Matching fills every relation with the diagonal {(i, i, ..., i)}:
// n tuples per relation, join size exactly n for any connected query.
// It is the classic skew-free instance where one-round HyperCube with
// optimal shares achieves its best load.
func Matching(q *hypergraph.Query, n int) *relation.Instance {
	in := relation.NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		arity := q.EdgeVars(e).Len()
		for i := 0; i < n; i++ {
			t := make(relation.Tuple, arity)
			for j := range t {
				t[j] = int64(i)
			}
			in.Rel(e).Add(t)
		}
	}
	return in
}

// identity returns [0, 1, ..., n-1].
func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// AGMWorstCase builds the AGM-tight instance for an arbitrary query: it
// solves the vertex-packing LP (dual of the edge cover), gives attribute
// v a domain of ⌊N^{y_v}⌋ values, and makes every relation the full
// Cartesian product of its attribute domains. Every relation then has at
// most ~N tuples while the join output reaches Θ(N^{ρ*}) — the worst
// case the upper-bound theorems are measured against.
func AGMWorstCase(q *hypergraph.Query, n int) (*relation.Instance, error) {
	pack, err := fractional.VertexPacking(q)
	if err != nil {
		return nil, err
	}
	doms := make(map[int]int64)
	for _, a := range q.AllVars().Attrs() {
		y, _ := pack.Value(a).Float64()
		d := int64(math.Floor(math.Pow(float64(n), y) + 1e-9))
		if d < 1 {
			d = 1
		}
		doms[a] = d
	}
	in := relation.NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		fillCartesian(in.Rel(e), q.EdgeVars(e).Attrs(), doms)
	}
	return in, nil
}

// fillCartesian populates r with the full Cartesian product of the
// attribute domains (attribute a ranges over 0..doms[a]-1).
func fillCartesian(r *relation.Relation, attrs []int, doms map[int]int64) {
	schema := r.Schema()
	sizes := make([]int64, len(attrs))
	for i, a := range attrs {
		sizes[i] = doms[a]
	}
	t := make(relation.Tuple, schema.Len())
	var rec func(i int)
	rec = func(i int) {
		if i == len(attrs) {
			r.Add(t) // Add copies into the arena
			return
		}
		p := schema.Pos(attrs[i])
		for v := int64(0); v < sizes[i]; v++ {
			t[p] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// Figure4Hard builds the hard instance of Example 3.4 for the Figure 4
// query: attributes D, E, F, H, J, K, G get N distinct values, the rest
// a single value; e4(A,B,H,J) is a one-to-one mapping between H and J,
// and every other relation is the Cartesian product of its domains
// (N tuples each). On it the conservative run pays the sub-join
// S = {e0,e1,e2,e3,e5,e6,e7} of size N^7.
func Figure4Hard(n int) *relation.Instance {
	q := hypergraph.Figure4Join()
	doms := make(map[int]int64)
	for _, name := range []string{"A", "B", "C", "I"} {
		doms[q.AttrID(name)] = 1
	}
	for _, name := range []string{"D", "E", "F", "H", "J", "K", "G"} {
		doms[q.AttrID(name)] = int64(n)
	}
	in := relation.NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		if q.Edge(e).Name == "e4" {
			// One-to-one over (H, J); A, B pinned to the single value 0.
			r := in.Rel(e)
			schema := r.Schema()
			hp, jp := schema.Pos(q.AttrID("H")), schema.Pos(q.AttrID("J"))
			for i := int64(0); i < int64(n); i++ {
				t := make(relation.Tuple, schema.Len())
				t[hp], t[jp] = i, i
				r.Add(t)
			}
			continue
		}
		fillCartesian(in.Rel(e), q.EdgeVars(e).Attrs(), doms)
	}
	return in
}

// SquareHard builds the Theorem 6 hard instance for Q_□ exactly as the
// paper states it: attributes A, B, C get N^{1/3} values, D, E, F get
// N^{2/3} values; R1, R3, R4, R5 are Cartesian products with ~N tuples
// each, and R2(D,E,F) samples each of the N^2 combinations independently
// with probability 1/N (~N tuples, output ~N^2 in expectation). n should
// be a perfect cube for exact domain sizes; other values round down.
func SquareHard(n int, seed uint64) *relation.Instance {
	q := hypergraph.SquareJoin()
	return ProvableHard(q, SquareWitness(q), n, seed)
}

// SquareWitness pins the Theorem 6 witness for Q_□ exactly as the paper
// states it: x_A=x_B=x_C = 1/3, x_D=x_E=x_F = 2/3 and E' = {R2}. (The
// symmetric witness with R1 probabilistic is equally valid and is what
// the search in fractional.EdgePackingProvable finds first.)
func SquareWitness(q *hypergraph.Query) *fractional.Witness {
	weights := make(map[int]*big.Rat)
	for _, name := range []string{"A", "B", "C"} {
		weights[q.AttrID(name)] = big.NewRat(1, 3)
	}
	for _, name := range []string{"D", "E", "F"} {
		weights[q.AttrID(name)] = big.NewRat(2, 3)
	}
	return &fractional.Witness{
		Provable: true,
		Cover: &fractional.VertexAssignment{
			Query:   q,
			Weights: weights,
			Number:  big.NewRat(3, 1),
		},
		ProbEdges: hypergraph.NewEdgeSet(q.EdgeIndex("R2")),
		Epsilon:   big.NewRat(1, 3),
	}
}

// ProvableHard builds the Theorem 7 hard instance for an
// edge-packing-provable degree-two join from its witness: attribute v
// gets a domain of ⌊N^{x_v}⌋ values; edges outside E' are deterministic
// Cartesian products (exactly Π_v N^{x_v} ≈ N tuples); edges in E' are
// sampled with probability N/Π_{v∈e} dom(v) = 1/N^{Σx−1} per
// combination (~N tuples in expectation).
func ProvableHard(q *hypergraph.Query, w *fractional.Witness, n int, seed uint64) *relation.Instance {
	if !w.Provable {
		panic(fmt.Sprintf("workload: %s is not edge-packing-provable: %s", q.Name(), w.Reason))
	}
	r := rng(seed)
	doms := make(map[int]int64)
	for _, a := range q.AllVars().Attrs() {
		x, _ := w.Cover.Value(a).Float64()
		d := int64(math.Floor(math.Pow(float64(n), x) + 1e-9))
		if d < 1 {
			d = 1
		}
		doms[a] = d
	}
	in := relation.NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		if !w.ProbEdges.Contains(e) {
			fillCartesian(in.Rel(e), q.EdgeVars(e).Attrs(), doms)
			continue
		}
		// Probabilistic edge: include each combination with
		// probability n / (product of domain sizes). Small spaces are
		// enumerated with independent coin flips (the construction as
		// written); for large spaces that is infeasible, so the tuple
		// count is drawn from the Binomial's normal approximation and
		// that many distinct combinations are sampled uniformly — the
		// same distribution up to vanishing approximation error.
		space := 1.0
		for _, a := range q.EdgeVars(e).Attrs() {
			space *= float64(doms[a])
		}
		prob := float64(n) / space
		if prob > 1 {
			prob = 1
		}
		rel := in.Rel(e)
		attrs := q.EdgeVars(e).Attrs()
		schema := rel.Schema()
		if space <= 2.5e8 {
			t := make(relation.Tuple, schema.Len())
			var rec func(i int)
			rec = func(i int) {
				if i == len(attrs) {
					if r.Float64() < prob {
						rel.Add(t.Clone())
					}
					return
				}
				p := schema.Pos(attrs[i])
				for v := int64(0); v < doms[attrs[i]]; v++ {
					t[p] = v
					rec(i + 1)
				}
			}
			rec(0)
			continue
		}
		mean := space * prob
		count := int(mean + math.Sqrt(mean*(1-prob))*r.NormFloat64() + 0.5)
		if count < 0 {
			count = 0
		}
		// Dedup on the edge's columns at their schema positions.
		kpos := make([]int, len(attrs))
		for i, a := range attrs {
			kpos[i] = schema.Pos(a)
		}
		seen := hashtab.New(len(attrs), count)
		t := make(relation.Tuple, schema.Len())
		for seen.Len() < count {
			for _, a := range attrs {
				t[schema.Pos(a)] = r.Int64N(doms[a])
			}
			if _, dup := seen.Insert(t, kpos); !dup {
				rel.Add(t)
			}
		}
		seen.Release()
	}
	return in
}

// StarDualHard builds the instance exhibiting the one-round vs
// multi-round gap for the star-dual join (Section 1.3): R0 holds n
// tuples over the m hub attributes with every coordinate distinct per
// row block, and each unary R_i holds n values of which only a √-ish
// fraction matches — forcing one-round algorithms to replicate.
func StarDualHard(m, n int, seed uint64) *relation.Instance {
	q := hypergraph.StarDualJoin(m)
	r := rng(seed)
	in := relation.NewInstance(q)
	r0 := in.Rel(0)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, m)
		for j := range t {
			t[j] = r.Int64N(int64(n))
		}
		r0.Add(t)
	}
	for e := 1; e <= m; e++ {
		rel := in.Rel(e)
		for v := int64(0); v < int64(n); v++ {
			rel.AddValues(v)
		}
	}
	return in
}

// HeavyHub builds a maximally skewed instance: in every relation with a
// unique (degree-1) attribute, half the tuples pin all shared attributes
// to the single heavy value 0 while the unique attributes enumerate;
// the other half (and all relations without unique attributes) form the
// light diagonal (i, ..., i). The heavy value has degree Θ(n), which is
// the skew that defeats share-based one-round algorithms and motivates
// the heavy/light decomposition of Section 3.
func HeavyHub(q *hypergraph.Query, n int) *relation.Instance {
	in := relation.NewInstance(q)
	for e := 0; e < q.NumEdges(); e++ {
		rel := in.Rel(e)
		schema := rel.Schema()
		hasUnique := false
		for _, a := range schema.Attrs() {
			if q.Degree(a) == 1 {
				hasUnique = true
				break
			}
		}
		for i := 0; i < n; i++ {
			heavy := hasUnique && i < n/2
			t := make(relation.Tuple, schema.Len())
			for j, a := range schema.Attrs() {
				if heavy && q.Degree(a) > 1 {
					t[j] = 0
				} else {
					t[j] = int64(i)
				}
			}
			rel.Add(t)
		}
	}
	return in
}
