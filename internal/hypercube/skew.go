package hypercube

import (
	"math"
	"math/big"
	"strconv"

	"coverpack/internal/hashtab"
	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/primitives"
	"coverpack/internal/relation"
)

// This file implements the skew-aware one-round algorithm in the spirit
// of [19]: classify each attribute value heavy/light against a degree
// threshold, stratify tuples by their heavy pattern, and run HyperCube
// per stratum with share exponents capped by the (small) number of
// distinct heavy values in heavy dimensions. The strata partition the
// output, so each join result is emitted exactly once, and the
// worst-case load tracks Õ(N/p^{1/ψ*}) — the quantity ψ* maximizes over
// residual queries is exactly the packing number of the stratum's light
// part. See DESIGN.md's substitution table.

// SkewAwareResult extends Result with stratification detail.
type SkewAwareResult struct {
	Emitted int64
	// Strata counts the nonempty heavy-pattern strata executed.
	Strata int
	// Threshold is the heavy-degree cutoff used.
	Threshold int64
}

// heavyValues computes, per attribute, the set of values whose degree in
// some relation containing the attribute exceeds the threshold. Degrees
// are computed with the accounted Degrees primitive, and the (small)
// heavy lists are broadcast to all servers, also accounted.
func heavyValues(g *mpc.Group, in *relation.Instance, threshold int64, countAttr int) map[int]map[relation.Value]bool {
	q := in.Query
	// Scatter each relation once: the loop below revisits an edge for
	// every attribute it contains, and the initial placement (free, but
	// a full copy in simulator time) is identical each visit. The
	// repeated Degrees calls over one scattered relation then share
	// plan-cache entries for their keyed exchanges.
	scattered := make([]*mpc.DistRelation, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		scattered[e] = g.Scatter(in.Rel(e))
	}
	heavy := make(map[int]map[relation.Value]bool)
	for _, a := range q.AllVars().Attrs() {
		heavy[a] = make(map[relation.Value]bool)
		for _, e := range q.EdgesWith(a).Edges() {
			degs := primitives.Degrees(g, scattered[e], a, countAttr)
			// Keep only heavy rows, then broadcast them (every server
			// needs the cutoff lists to classify its tuples).
			hv := primitives.HeavyFilter(g, degs, countAttr, threshold)
			all := g.Broadcast(hv)
			one := all.Frag(0)
			ap := one.Schema().Pos(a)
			for i := 0; i < one.Len(); i++ {
				heavy[a][one.Row(i)[ap]] = true
			}
			g.Free(degs, hv, all)
		}
	}
	g.Free(scattered...)
	return heavy
}

// SkewAware runs the stratified one-round algorithm on the group with
// the default threshold N/p^{1/ψ*}; psi is ψ* of the query (callers get
// it from fractional.Psi).
func SkewAware(g *mpc.Group, in *relation.Instance, psi float64) (*SkewAwareResult, error) {
	n := in.N()
	p := g.Size()
	threshold := int64(float64(n) / math.Pow(float64(p), 1/psi))
	if threshold < 1 {
		threshold = 1
	}
	return SkewAwareWithThreshold(g, in, threshold)
}

// SkewAwareWithThreshold runs the stratified algorithm with an explicit
// heavy-degree threshold.
func SkewAwareWithThreshold(g *mpc.Group, in *relation.Instance, threshold int64) (*SkewAwareResult, error) {
	q := in.Query
	countAttr := q.NumAttrs() + 1
	var heavy map[int]map[relation.Value]bool
	g.Span("statistics", func() {
		heavy = heavyValues(g, in, threshold, countAttr)
	})

	attrs := q.AllVars().Attrs()
	strata := skewStrata(in, attrs, heavy)

	// Run each stratum's HyperCube in parallel. Heavy dimensions get a
	// share cap equal to their heavy-value count (hashing beyond the
	// distinct count buys nothing); light dimensions cap at the
	// stratum's distinct light values. Strata run in pattern order, so
	// traces and stats are identical across runs and worker counts.
	var res SkewAwareResult
	res.Threshold = threshold
	branches := make([]mpc.Branch, len(strata))
	for idx, st := range strata {
		branches[idx] = mpc.Branch{
			Servers: g.Size(),
			Run: func(sub *mpc.Group) (n int64, err error) {
				sub.Span("stratum "+strconv.Itoa(idx), func() { n, err = runStratum(sub, q, st.Inst, heavy, attrs, st.Pattern) })
				return n, err
			},
		}
	}
	counts, err := g.Parallel(branches)
	if err != nil {
		return nil, err
	}
	res.Emitted = relation.SumSat(counts)
	res.Strata = len(strata)
	return &res, nil
}

// skewStrata stratifies in by heavy pattern over attrs (bit i for
// attrs[i]). The candidates are the subsets of the attributes heavy
// somewhere, the enumeration capped at 20 of them; they ascend, so the
// nonempty strata come back in pattern order.
func skewStrata(in *relation.Instance, attrs []int, heavy map[int]map[relation.Value]bool) []Stratum {
	var heavyBits []uint64
	for i, a := range attrs {
		if len(heavy[a]) > 0 {
			heavyBits = append(heavyBits, 1<<uint(i))
		}
	}
	if len(heavyBits) > 20 {
		heavyBits = heavyBits[:20]
	}
	candidates := make([]uint64, 1<<uint(len(heavyBits)))
	for mask := range candidates {
		for b, bit := range heavyBits {
			if mask&(1<<uint(b)) != 0 {
				candidates[mask] |= bit
			}
		}
	}
	return Stratify(in, attrs, heavy, candidates)
}

// distinctUnion counts the distinct values of attribute a over every
// relation holding it, in one borrowed arity-1 table.
func distinctUnion(q *hypergraph.Query, inst *relation.Instance, a int) int64 {
	edges := q.EdgesWith(a).Edges()
	hint := 0
	for _, e := range edges {
		hint += inst.Rel(e).Len()
	}
	var seen hashtab.Table
	seen.Init(1, hint)
	for _, e := range edges {
		r := inst.Rel(e)
		p, arity, data := r.Schema().Pos(a), r.Schema().Len(), r.Data()
		for i := 0; i < r.Len(); i++ {
			k := i*arity + p
			seen.Insert(data[k:k+1], valuePos)
		}
	}
	n := int64(seen.Len())
	seen.Release()
	return n
}

// valuePos is the key position of a one-column key view.
var valuePos = []int{0}

// runStratum executes one heavy-pattern stratum's capped HyperCube and
// returns its emitted count.
func runStratum(sub *mpc.Group, q *hypergraph.Query, inst *relation.Instance,
	heavy map[int]map[relation.Value]bool, attrs []int, pattern uint64) (int64, error) {
	caps := make(map[int]*big.Rat)
	domCaps := make(map[int]int64)
	logp := math.Log(float64(sub.Size()))
	for i, a := range attrs {
		var dom int64
		if pattern&(1<<uint(i)) != 0 {
			dom = int64(len(heavy[a]))
		} else {
			dom = distinctUnion(q, inst, a)
		}
		if dom < 1 {
			dom = 1
		}
		domCaps[a] = dom
		if logp > 0 {
			c := math.Log(float64(dom)) / logp
			if c < 1 {
				caps[a] = new(big.Rat).SetFloat64(math.Max(0, c))
			}
		}
	}
	exps, err := ShareExponents(q, caps)
	if err != nil {
		return 0, err
	}
	shares := Shares(q, sub.Size(), exps, domCaps)
	return RunWithShares(sub, inst, shares, uint64(pattern)*0x9e37+1).Emitted, nil
}
