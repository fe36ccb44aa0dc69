package primitives

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/trace"
	"coverpack/internal/workload"
)

// refReduceTree is SemiJoinReduceTree as a plain loop of SemiJoin calls:
// every semi-join partitions both of its sides afresh.
func refReduceTree(g *mpc.Group, rels []*mpc.DistRelation, children [][]int, roots []int) []*mpc.DistRelation {
	out := slices.Clone(rels)
	g.Span("semi-join reduce", func() {
		var up, down func(e int)
		up = func(e int) {
			for _, c := range children[e] {
				up(c)
				out[e] = SemiJoin(g, out[e], out[c])
			}
		}
		down = func(e int) {
			for _, c := range children[e] {
				out[c] = SemiJoin(g, out[c], out[e])
				down(c)
			}
		}
		for _, r := range roots {
			up(r)
			down(r)
		}
	})
	return out
}

// The up sweep hands each child, partitioned on its parent's key, to the
// down sweep, which then re-partitions it by the identity exchange. The
// outputs, Stats and trace must be those of the plain loop, fragment by
// fragment and byte by byte, with fewer exchanges hashed.
func TestReduceTreeReusesUpSweepPartition(t *testing.T) {
	trees := []struct {
		q      *hypergraph.Query
		parent []int
	}{
		{hypergraph.Line3Join(), []int{-1, 0, 1}},
		{hypergraph.StarJoin(3), []int{-1, 0, 0, 0}},
		{hypergraph.PathJoin(4), []int{-1, 0, 1, 2}},
	}
	for _, tr := range trees {
		tree := &hypergraph.JoinTree{Query: tr.q, Parent: tr.parent}
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		children := make([][]int, tr.q.NumEdges())
		for e := range children {
			children[e] = tree.Children(e)
		}
		for _, inst := range []struct {
			name string
			in   *relation.Instance
		}{
			{"uniform", workload.Uniform(tr.q, 600, 300, 5)},
			{"heavyhub", workload.HeavyHub(tr.q, 600)},
		} {
			name, in := inst.name, inst.in
			for _, p := range []int{4, 8} {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%s/p=%d/workers=%d", tr.q.Name(), name, p, workers)
					run := func(sweep func(*mpc.Group, []*mpc.DistRelation, [][]int, []int) []*mpc.DistRelation) (*mpc.Cluster, []*mpc.DistRelation, *trace.Span) {
						col := trace.NewCollector()
						c := mpc.NewCluster(p, mpc.WithWorkers(workers), mpc.WithRecorder(col))
						g := c.Root()
						rels := make([]*mpc.DistRelation, tr.q.NumEdges())
						for e := range rels {
							rels[e] = g.Scatter(in.Rel(e))
						}
						return c, sweep(g, rels, children, tree.Roots()), col.Root()
					}
					c, got, gotSpans := run(SemiJoinReduceTree)
					rc, want, wantSpans := run(refReduceTree)
					kept := 0
					for e := range want {
						kept += want[e].Len()
						if !sameFrags(got[e], want[e]) {
							t.Fatalf("%s: edge %d fragments differ from the plain loop", label, e)
						}
					}
					if kept == 0 {
						t.Fatalf("%s: the reduction kept nothing", label)
					}
					if c.Stats() != rc.Stats() {
						t.Fatalf("%s: stats %v, plain loop %v", label, c.Stats(), rc.Stats())
					}
					if !reflect.DeepEqual(gotSpans, wantSpans) {
						t.Fatalf("%s: trace differs from the plain loop", label)
					}
					if s, rs := c.PlanCacheStats(), rc.PlanCacheStats(); s.Misses >= rs.Misses || s.Lookups() != rs.Lookups() {
						t.Fatalf("%s: sweep hashed %d of %d exchanges, plain loop %d of %d",
							label, s.Misses, s.Lookups(), rs.Misses, rs.Lookups())
					}
					c.Release()
					rc.Release()
				}
			}
		}
	}
}

// sameFrags reports whether two distributed relations hold the same rows
// in the same order on every server.
func sameFrags(a, b *mpc.DistRelation) bool {
	if !a.Schema.Equal(b.Schema) || a.Servers() != b.Servers() {
		return false
	}
	for i := range a.Servers() {
		if f := a.Frag(i); f.Len() != b.FragLen(i) || !slices.Equal(f.Data(), b.Frag(i).Clone().Data()) {
			return false
		}
	}
	return true
}
