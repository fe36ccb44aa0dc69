package cyclic

import (
	"slices"
	"testing"

	"coverpack/internal/hypercube"
	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/workload"
)

// referenceHeavyStrata is the per-mask loop RunTriangle and RunLW each
// ran before the shared stratifier (their two copies computed the same
// strata): for every mask over attrs, every relation's rows are
// re-masked and added one at a time; a mask under which some relation
// empties is dropped.
func referenceHeavyStrata(in *relation.Instance, attrs []int, heavy map[int]map[relation.Value]bool) map[uint64]*relation.Instance {
	q := in.Query
	pattern := func(r *relation.Relation, t relation.Tuple) (mask uint64) {
		for i, a := range attrs {
			if r.Schema().Has(a) && heavy[a][r.Get(t, a)] {
				mask |= 1 << uint(i)
			}
		}
		return
	}
	edgeMask := func(e int) (m uint64) {
		for i, a := range attrs {
			if q.EdgeVars(e).Contains(a) {
				m |= 1 << uint(i)
			}
		}
		return
	}
	strata := make(map[uint64]*relation.Instance)
	for mask := uint64(0); mask < 1<<uint(len(attrs)); mask++ {
		strat := relation.NewInstance(q)
		empty := false
		for e := 0; e < q.NumEdges(); e++ {
			src, dst := in.Rel(e), strat.Rel(e)
			for i := 0; i < src.Len(); i++ {
				if t := src.Row(i); pattern(src, t) == mask&edgeMask(e) {
					dst.Add(t)
				}
			}
			if dst.Len() == 0 {
				empty = true
				break
			}
		}
		if !empty {
			strata[mask] = strat
		}
	}
	return strata
}

// diffStrata reports how got differs from the reference strata, or ""
// when every pattern matches and every relation agrees row for row, in
// order. got must ascend by pattern.
func diffStrata(got []hypercube.Stratum, want map[uint64]*relation.Instance) string {
	if len(got) != len(want) {
		return "stratum count differs"
	}
	for i, st := range got {
		if i > 0 && got[i-1].Pattern >= st.Pattern {
			return "patterns do not ascend"
		}
		w, ok := want[st.Pattern]
		if !ok {
			return "unexpected pattern"
		}
		for e, r := range st.Inst.Relations {
			wr := w.Rel(e)
			if !r.Schema().Equal(wr.Schema()) || r.Len() != wr.Len() || !slices.Equal(r.Data(), wr.Data()) {
				return "relation content or order differs"
			}
		}
	}
	return ""
}

// The triangle and LW algorithms' statistics and stratifier, run as
// they run them (on the door's sets, scattered, Degrees-based heavy
// values), must produce the strata of the old per-mask loop.
func TestHeavyStrataMatchReferenceLoop(t *testing.T) {
	multi := false
	for _, tc := range []struct {
		name  string
		in    *relation.Instance
		delta int64
	}{
		{"heavyhub-triangle", workload.HeavyHub(hypergraph.TriangleJoin(), 300), 2},
		{"zipf-triangle", workload.Zipf(hypergraph.TriangleJoin(), 400, 60, 1.2, 3), 8},
		{"heavyhub-lw4", workload.HeavyHub(hypergraph.LoomisWhitneyJoin(4), 200), 2},
		{"zipf-lw4", workload.Zipf(hypergraph.LoomisWhitneyJoin(4), 300, 12, 1.3, 5), 30},
		{"stardual-hard", workload.StarDualHard(3, 400, 7), 2},
	} {
		c := mpc.NewCluster(16)
		g := c.Root()
		q := tc.in.Query
		attrs := q.AllVars().Attrs()
		sets := tc.in.AsSets()
		scattered := make([]*mpc.DistRelation, q.NumEdges())
		for e := range scattered {
			scattered[e] = g.Scatter(sets.Rel(e))
		}
		heavy := heavyStatistics(g, q, attrs, scattered, tc.delta)
		got := heavyStrata(sets, attrs, heavy)
		if diff := diffStrata(got, referenceHeavyStrata(sets, attrs, heavy)); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
		t.Logf("%s: %d strata", tc.name, len(got))
		multi = multi || len(got) > 1
	}
	if !multi {
		t.Fatal("no input split into more than one stratum")
	}
}
