// Package cyclic implements the multi-round worst-case optimal
// algorithm for the triangle join — the binary-relation-join cell of
// Table 1 ([18, 19, 25]) that the paper's acyclic algorithm does not
// cover. Load: Õ(N/p^{1/ρ*}) = Õ(N/p^{2/3}).
//
// The algorithm is the classic heavy/light decomposition: a value is
// heavy in an attribute when its degree exceeds δ = N/p^{1/3}; join
// results are stratified by which of their three attribute values are
// heavy. The all-light stratum runs one-round HyperCube with τ*-shares
// (degree-bounded values hash evenly, giving load ~N/p^{2/3}); every
// stratum with a heavy attribute h is partitioned by h's ≤ 3·p^{1/3}
// heavy values, and each residual query — the triangle minus one vertex,
// a path join, hence acyclic — is solved by the multi-round algorithm of
// internal/core on its own server group.
package cyclic

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"coverpack/internal/core"
	"coverpack/internal/hypercube"
	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/primitives"
	"coverpack/internal/relation"
)

// Result reports one execution.
type Result struct {
	// Emitted is the number of triangles emitted (each exactly once).
	Emitted int64
	// Threshold is the heavy-degree cutoff δ used.
	Threshold int64
	// HeavyBranches counts the residual acyclic subqueries executed.
	HeavyBranches int
}

// RunTriangle executes the multi-round triangle algorithm over a valid,
// set-valued instance (see core.Run). The query must be a 3-cycle of
// binary relations (hypergraph.TriangleJoin shape, any attribute/relation
// names).
func RunTriangle(g *mpc.Group, in *relation.Instance) (*Result, error) {
	attrs, err := triangleShape(in.Query)
	if err != nil {
		return nil, err
	}
	return runStrata(g, in, attrs, int64(float64(in.N())/math.Cbrt(float64(g.Size()))))
}

// runStrata is the multi-round body shared by RunTriangle and RunLW:
// heavy statistics at cutoff delta (at least 1) over attrs, then one
// Parallel block with the all-light stratum on one-round HyperCube and
// one internal/core branch per heavy value of each heavy stratum's
// lowest heavy attribute. Each caller computes its own delta.
func runStrata(g *mpc.Group, in *relation.Instance, attrs []int, delta int64) (*Result, error) {
	q := in.Query
	p := g.Size()
	if delta < 1 {
		delta = 1
	}

	// Scatter each relation once up front: every edge is visited once
	// per incident attribute by the statistics loop, and the initial
	// placement is identical each time.
	scattered := make([]*mpc.DistRelation, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		scattered[e] = g.Scatter(in.Rel(e))
	}

	heavy := heavyStatistics(g, q, attrs, scattered, delta)
	g.Free(scattered...)

	res := &Result{Threshold: delta}
	var branches []mpc.Branch
	for _, st := range heavyStrata(in, attrs, heavy) {
		strat := st.Inst
		if st.Pattern == 0 {
			// All-light: one-round HyperCube with τ*-shares; light
			// degrees are ≤ δ, so hashing balances the load.
			branches = append(branches, mpc.Branch{Servers: p, Run: func(sub *mpc.Group) (int64, error) {
				var r *hypercube.Result
				var err error
				sub.Span("light stratum", func() { r, err = hypercube.Run(sub, strat) })
				if err != nil {
					return 0, err
				}
				return r.Emitted, nil
			}})
			continue
		}
		// Heavy stratum: split on the lowest heavy attribute h in the
		// pattern; each heavy value of h spawns the acyclic residual.
		h := attrs[bits.TrailingZeros64(st.Pattern)]
		vals := heavyValuesIn(strat, q, h)
		if len(vals) == 0 {
			continue
		}
		perBranch := p / len(vals)
		if perBranch < 1 {
			perBranch = 1
		}
		for _, v := range vals {
			branchIn := residualInstance(strat, h, v)
			if branchIn == nil {
				continue
			}
			res.HeavyBranches++
			branches = append(branches, mpc.Branch{Servers: perBranch, Run: func(sub *mpc.Group) (int64, error) {
				var r *core.Result
				var err error
				sub.Span("heavy stratum", func() {
					// Charge the shipment of the branch instance onto its
					// group (one round, spread round-robin).
					units := make([]int, sub.Size())
					per := branchIn.TotalTuples()/sub.Size() + 1
					for i := range units {
						units[i] = per
					}
					sub.ChargeControl(units)
					r, err = core.Run(sub, branchIn, core.Options{Strategy: core.PathOptimal})
				})
				if err != nil {
					return 0, err
				}
				return r.Emitted, nil
			}})
		}
	}

	counts, err := g.Parallel(branches)
	if err != nil {
		return nil, err
	}
	res.Emitted = relation.SumSat(counts)
	return res, nil
}

// triangleShape verifies the query is a 3-cycle of binary relations and
// returns its attributes in id order.
func triangleShape(q *hypergraph.Query) ([]int, error) {
	if q.NumEdges() != 3 || q.AllVars().Len() != 3 {
		return nil, fmt.Errorf("cyclic: %s is not a triangle (3 binary relations over 3 attributes)", q.Name())
	}
	for e := 0; e < 3; e++ {
		if q.EdgeVars(e).Len() != 2 {
			return nil, fmt.Errorf("cyclic: %s: relation %s is not binary", q.Name(), q.Edge(e).Name)
		}
	}
	for _, a := range q.AllVars().Attrs() {
		if q.Degree(a) != 2 {
			return nil, fmt.Errorf("cyclic: %s: attribute %s has degree %d", q.Name(), q.AttrName(a), q.Degree(a))
		}
	}
	if q.IsAcyclic() {
		return nil, fmt.Errorf("cyclic: %s is acyclic, use internal/core", q.Name())
	}
	return q.AllVars().Attrs(), nil
}

// heavyStatistics finds each attribute's heavy values, those of degree
// above delta in some relation containing it (Degrees plus a small
// gather, both charged). scattered holds the instance's relations,
// indexed by edge.
func heavyStatistics(g *mpc.Group, q *hypergraph.Query, attrs []int, scattered []*mpc.DistRelation, delta int64) map[int]map[relation.Value]bool {
	cntAttr := q.NumAttrs() + 1
	heavy := make(map[int]map[relation.Value]bool, len(attrs))
	g.Span("statistics", func() {
		for _, a := range attrs {
			heavy[a] = make(map[relation.Value]bool)
			for _, e := range q.EdgesWith(a).Edges() {
				degs := primitives.Degrees(g, scattered[e], a, cntAttr)
				hf := primitives.HeavyFilter(g, degs, cntAttr, delta)
				rows := g.Gather(hf)
				ap := rows.Schema().Pos(a)
				for i := 0; i < rows.Len(); i++ {
					heavy[a][rows.Row(i)[ap]] = true
				}
				g.Free(degs, hf)
			}
		}
	})
	return heavy
}

// heavyStrata stratifies in by every heavy pattern over attrs (bit i
// for attrs[i]), in ascending pattern order.
func heavyStrata(in *relation.Instance, attrs []int, heavy map[int]map[relation.Value]bool) []hypercube.Stratum {
	candidates := make([]uint64, 1<<uint(len(attrs)))
	for i := range candidates {
		candidates[i] = uint64(i)
	}
	return hypercube.Stratify(in, attrs, heavy, candidates)
}

// heavyValuesIn lists the distinct h-values present in every relation
// containing h within the stratum (sorted for determinism).
func heavyValuesIn(in *relation.Instance, q *hypergraph.Query, h int) []relation.Value {
	es := q.EdgesWith(h).Edges()
	counts := make(map[relation.Value]int)
	for _, e := range es {
		for v := range in.Rel(e).DistinctValues(h) {
			counts[v]++
		}
	}
	var out []relation.Value
	for v, c := range counts { // map order is random; sorted below
		if c == len(es) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// residualInstance builds the acyclic residual query for h = v: the
// triangle minus vertex h. Relations containing h are filtered to v and
// projected in one pass; the opposite relation is kept whole. Returns
// nil when some relation empties.
func residualInstance(in *relation.Instance, h int, v relation.Value) *relation.Instance {
	q := in.Query
	rq := hypergraph.NewQuery(q.Name() + "|res")
	var rels []*relation.Relation
	for e := 0; e < q.NumEdges(); e++ {
		r := in.Rel(e)
		if q.EdgeVars(e).Contains(h) {
			rest := q.EdgeVars(e).Clone()
			rest.Remove(h)
			filtered := r.SelectEqProject(h, v, rest.Attrs()...)
			if filtered.Len() == 0 {
				return nil
			}
			rq.AddEdgeVars(q.Edge(e).Name, rest)
			rels = append(rels, filtered)
		} else {
			rq.AddEdgeVars(q.Edge(e).Name, q.EdgeVars(e))
			rels = append(rels, r)
		}
	}
	return &relation.Instance{Query: rq, Relations: rels}
}
