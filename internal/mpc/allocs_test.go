package mpc

import (
	"testing"

	"coverpack/internal/relation"
)

// TestExchangeAllocs pins every exchange operation, on one worker with
// warm pools, at the objects it returns: an exchange's bookkeeping lives
// in its pooled scratch, which every operation puts back. Each run
// releases the cluster, so the output arenas come back to the pool for
// the next run.
//
// A routed exchange returns NewSlabCounts' fragment header slab and its
// pointer slice, plus a DistRelation — or, for DistributeSpread, a slab
// of branch DistRelations and its pointer slice. HashPartition adds its recorded key; Scatter and ScatterDedup
// their one-fragment view of the input; Route its RouteBuf wrapper of
// the caller's function; RouteBuf its destination buffer (one per
// exchange: a route function may return memory it holds).
// HashPartition's identity path returns a DistRelation, its key and a
// clone of the fragment pointers; Gather one Relation; Broadcast is a
// Local step (DistRelation, header slab, pointer slice, arena).
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const p = 8
	in := big(relation.NewSchema(0, 1), 600)
	// The inputs live on a cluster that is never released.
	src := NewCluster(p).Root()
	d := src.Scatter(in)
	parted := src.HashPartition(d, []int{0})
	c := NewCluster(p, withForcedWorkers(1))
	g := c.Root()
	two := []int{1, 5}
	plain := func(int, relation.Tuple) []int { return two }
	route := func(_ int, t relation.Tuple, buf []int) []int {
		return append(buf[:0], int(t[0])%p, int(t[1])%p)
	}
	sizes := []int{3, 5}
	sends := [][]BranchSend{{{Branch: 0}}, {{Branch: 1, Broadcast: true}, {Branch: 0}}}
	pick := func(_ *relation.Relation, t relation.Tuple) []BranchSend { return sends[t[0]%2] }
	for _, op := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Scatter", 4, func() { g.Scatter(in) }},
		{"ScatterDedup", 4, func() { g.ScatterDedup(in) }},
		{"HashPartition", 4, func() { g.HashPartition(d, []int{0}) }},
		{"HashPartition/identity", 3, func() { g.HashPartition(parted, []int{0}) }},
		{"Route", 4, func() { g.Route(d, plain) }},
		{"RouteBuf", 4, func() { g.RouteBuf(d, route) }},
		{"DistributeSpread", 4, func() { g.DistributeSpread(d, sizes, pick) }},
		{"Gather", 1, func() { g.Gather(d) }},
		{"Broadcast", 4, func() { g.Broadcast(d) }},
	} {
		run := func() {
			op.run()
			c.Release()
		}
		run()
		ResetSendPoolStats()
		if n := testing.AllocsPerRun(200, run); n != op.want {
			t.Errorf("%s: %v allocations, want %v", op.name, n, op.want)
		}
		if st := SendPoolStats(); st.Gets == 0 || st.Puts != st.Gets {
			t.Errorf("%s: scratch pool %+v, want every get put back", op.name, st)
		}
	}
}
