package cyclic

import (
	"fmt"
	"math"
	"math/bits"

	"coverpack/internal/core"
	"coverpack/internal/hypercube"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// RunLW executes the multi-round worst-case optimal algorithm for any
// Loomis-Whitney join LW_n (E = {V−{x} : x ∈ V}, footnote 3 — the
// triangle is LW_3), the other family of Table 1's multi-round cell.
// Load: Õ(N/p^{1/ρ*}) with ρ* = n/(n−1).
//
// Same decomposition as the triangle: δ = N/p^{(n-1)/n}-style cutoff,
// stratify by the heavy pattern, run the all-light stratum on one-round
// HyperCube, and observe that fixing a heavy value of x makes the
// residual trivially acyclic — the edge V−{x} (which never contained x)
// becomes a full edge of the residual and absorbs every other relation,
// so internal/core finishes each heavy branch.
func RunLW(g *mpc.Group, in *relation.Instance) (*Result, error) {
	q := in.Query
	if !q.IsLoomisWhitney() {
		return nil, fmt.Errorf("cyclic: %s is not a Loomis-Whitney join", q.Name())
	}
	attrs := q.AllVars().Attrs()
	nAttrs := len(attrs)
	n := in.N()
	p := g.Size()
	// Heavy cutoff: the share per dimension is p^{1/n} (every attribute
	// participates in n−1 of the n relations; the symmetric share LP
	// gives s_v = 1/n).
	delta := int64(float64(n) / math.Pow(float64(p), 1/float64(nAttrs)))
	if delta < 1 {
		delta = 1
	}

	// One dedup + scatter per relation, shared by the statistics loop
	// (each edge recurs once per incident attribute — n−1 times for
	// LW_n) and the stratifier below.
	dedup := make([]*relation.Relation, q.NumEdges())
	scattered := make([]*mpc.DistRelation, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		dedup[e] = in.Rel(e).DedupPar(g)
		scattered[e] = g.Scatter(dedup[e])
	}

	heavy := heavyStatistics(g, q, attrs, scattered, delta)

	res := &Result{Threshold: delta}
	var branches []mpc.Branch
	var emits []int64
	var errSlots []*error
	addBranch := func(servers int, run func(sub *mpc.Group) (int64, error)) {
		idx := len(emits)
		emits = append(emits, 0)
		errSlot := new(error)
		errSlots = append(errSlots, errSlot)
		branches = append(branches, mpc.Branch{
			Servers: servers,
			Run: func(sub *mpc.Group) {
				emits[idx], *errSlot = run(sub)
			},
		})
	}

	for _, st := range heavyStrata(&relation.Instance{Query: q, Relations: dedup}, attrs, heavy) {
		strat := st.Inst
		if st.Pattern == 0 {
			addBranch(p, func(sub *mpc.Group) (int64, error) {
				var r *hypercube.Result
				var err error
				sub.Span("light stratum", func() { r, err = hypercube.Run(sub, strat) })
				if err != nil {
					return 0, err
				}
				return r.Emitted, nil
			})
			continue
		}
		// Split on the lowest heavy attribute.
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
			sub, err := residualInstance(strat, h, v)
			if err != nil {
				return nil, err
			}
			if sub == nil {
				continue
			}
			res.HeavyBranches++
			branchIn := sub
			addBranch(perBranch, func(sg *mpc.Group) (int64, error) {
				var r *core.Result
				var err error
				sg.Span("heavy stratum", func() {
					units := make([]int, sg.Size())
					per := branchIn.TotalTuples()/sg.Size() + 1
					for i := range units {
						units[i] = per
					}
					sg.ChargeControl(units)
					r, err = core.Run(sg, branchIn, core.Options{Strategy: core.PathOptimal})
				})
				if err != nil {
					return 0, err
				}
				return r.Emitted, nil
			})
		}
	}

	g.Parallel(branches)
	for _, es := range errSlots {
		if *es != nil {
			return nil, *es
		}
	}
	for _, e := range emits {
		res.Emitted += e
	}
	return res, nil
}
