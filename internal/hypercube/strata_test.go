package hypercube

import (
	"slices"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/workload"
)

// referenceSkewStrata is the per-pattern loop the skew-aware algorithm
// ran before the shared stratifier: for every candidate pattern, every
// relation's rows are re-masked and added one at a time; a pattern
// under which some relation empties is dropped.
func referenceSkewStrata(in *relation.Instance, heavy map[int]map[relation.Value]bool) map[uint64]*relation.Instance {
	q := in.Query
	attrs := q.AllVars().Attrs()
	pos := make(map[int]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	maskOf := func(e int, r *relation.Relation, tp relation.Tuple) (m uint64) {
		for _, a := range q.EdgeVars(e).Attrs() {
			if heavy[a][r.Get(tp, a)] {
				m |= 1 << uint(pos[a])
			}
		}
		return
	}
	edgeMask := func(e int) (m uint64) {
		for _, a := range q.EdgeVars(e).Attrs() {
			m |= 1 << uint(pos[a])
		}
		return
	}
	var heavyAttrs []int
	for _, a := range attrs {
		if len(heavy[a]) > 0 {
			heavyAttrs = append(heavyAttrs, a)
		}
	}
	if len(heavyAttrs) > 20 {
		heavyAttrs = heavyAttrs[:20]
	}
	strata := make(map[uint64]*relation.Instance)
	for mask := 0; mask < 1<<uint(len(heavyAttrs)); mask++ {
		var pattern uint64
		for b, a := range heavyAttrs {
			if mask&(1<<uint(b)) != 0 {
				pattern |= 1 << uint(pos[a])
			}
		}
		inst := relation.NewInstance(q)
		empty := false
		for e := 0; e < q.NumEdges(); e++ {
			r, dst := in.Rel(e), inst.Rel(e)
			for i := 0; i < r.Len(); i++ {
				if tp := r.Row(i); maskOf(e, r, tp) == pattern&edgeMask(e) {
					dst.Add(tp)
				}
			}
			if dst.Len() == 0 {
				empty = true
				break
			}
		}
		if !empty {
			strata[pattern] = inst
		}
	}
	return strata
}

// diffStrata reports how got differs from the reference strata, or ""
// when every pattern matches and every relation agrees row for row, in
// order. got must ascend by pattern.
func diffStrata(got []Stratum, want map[uint64]*relation.Instance) string {
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

func TestSkewStrataMatchReferenceLoop(t *testing.T) {
	multi := false
	for _, tc := range []struct {
		name      string
		in        *relation.Instance
		threshold int64
	}{
		{"heavyhub-star", workload.HeavyHub(hypergraph.StarJoin(3), 300), 20},
		{"heavyhub-semijoin", workload.HeavyHub(hypergraph.SemiJoinExample(), 300), 1},
		{"stardual-hard", workload.StarDualHard(3, 400, 7), 2},
		{"zipf-triangle", workload.Zipf(hypergraph.TriangleJoin(), 400, 60, 1.2, 3), 8},
		{"zipf-path", workload.Zipf(hypergraph.PathJoin(3), 300, 40, 1.5, 5), 6},
	} {
		c := mpc.NewCluster(16)
		q := tc.in.Query
		heavy := heavyValues(c.Root(), tc.in, tc.threshold, q.NumAttrs()+1)
		got := skewStrata(tc.in, q.AllVars().Attrs(), heavy)
		if diff := diffStrata(got, referenceSkewStrata(tc.in, heavy)); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
		t.Logf("%s: %d strata", tc.name, len(got))
		multi = multi || len(got) > 1
	}
	if !multi {
		t.Fatal("no input split into more than one stratum")
	}
}
