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
// of branch DistRelations and its pointer slice. Destination-id
// vectors over scratchCap come from idPool, so HashPartition over more
// than scratchCap tuples allocates no more than over fewer. Spread
// returns the same and nothing else; it runs over more than scratchCap
// tuples, so a destination-id vector would come from idPool and count a
// get there, and a rotation vector kept outside the scratch would show
// up here. HashPartition records the caller's key, not a copy, so it
// adds nothing (key is built once, outside the measured runs); Scatter
// and ScatterDedup add their one-fragment view of the input; Route its RouteBuf wrapper of
// the caller's function; RouteBuf its destination buffer (one per
// exchange: a route function may return memory it holds).
// HashPartition's identity path returns a DistRelation and a clone of
// the fragment pointers; Gather one Relation; Broadcast is a
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
	wide := src.Scatter(big(relation.NewSchema(0, 1), scratchCap+1))
	c := NewCluster(p, withForcedWorkers(1))
	g := c.Root()
	key := []int{0}
	two := []int{1, 5}
	plain := func(int, relation.Tuple) []int { return two }
	route := func(_ int, t relation.Tuple, buf []int) []int {
		return append(buf[:0], int(t[0])%p, int(t[1])%p)
	}
	sizes := []int{3, 5}
	pick := func(t relation.Tuple) int { return int(t[0]%3) - 1 } // one in three dropped
	for _, op := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Scatter", 4, func() { g.Scatter(in) }},
		{"ScatterDedup", 4, func() { g.ScatterDedup(in) }},
		{"HashPartition", 3, func() { g.HashPartition(d, key) }},
		{"HashPartition/wide", 3, func() { g.HashPartition(wide, key) }},
		{"HashPartition/identity", 2, func() { g.HashPartition(parted, key) }},
		{"Route", 4, func() { g.Route(d, plain) }},
		{"RouteBuf", 4, func() { g.RouteBuf(d, route) }},
		{"DistributeSpread", 4, func() { g.DistributeSpread(d, sizes, false, pick) }},
		{"DistributeSpread/broadcast", 4, func() { g.DistributeSpread(d, sizes, true, pick) }},
		{"Spread", 4, func() { g.Spread(wide, sizes) }},
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
	before := idPool.Stats().Gets
	g.Spread(wide, sizes)
	c.Release()
	if got := idPool.Stats().Gets; got != before {
		t.Errorf("Spread took %d destination-id vectors, want none", got-before)
	}
}
