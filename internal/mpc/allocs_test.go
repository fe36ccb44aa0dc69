package mpc

import (
	"runtime"
	"runtime/debug"
	"testing"

	"coverpack/internal/relation"
)

// TestExchangeAllocs pins every exchange operation, on one worker with
// warm pools, at the objects it returns: an exchange's bookkeeping lives
// in its pooled scratch, which every operation puts back. Each run
// releases the cluster, so the output arenas come back to the pool for
// the next run.
//
// A routed exchange returns a DistRelation and its offset vector over
// the pooled blob: its fragments have no headers. DistributeSpread and
// Spread return one slab of branch DistRelations sharing one offset
// vector. Destination-id vectors over scratchCap come from idPool, one
// id a tuple even for a broadcast DistributeSpread into branches of
// several servers, so HashPartition and DistributeSpread over more than
// scratchCap tuples allocate no more than over fewer; Spread stores no
// ids at all. HashPartition records the caller's key, not a copy, so it
// adds nothing (key is built once, outside the measured runs); Scatter
// keeps its one-fragment input's offsets in the scratch; Route stores
// nothing a tuple and calls its function again to fill; RouteFan stores
// one id a tuple whatever its fan, in idPool's vector over scratchCap
// tuples. HashPartition's identity path returns a
// DistRelation sharing its input's arena and offsets; Gather one
// Relation; Broadcast is a Local step (DistRelation, offsets, arena).
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
	// A 2×2×2 grid with its first dimension pinned: two free dimensions.
	base := func(_ int, t relation.Tuple) int { return int(t[0]) % 2 * 4 }
	fan := []int{0, 1, 2, 3}
	sizes := []int{3, 5}
	pick := func(t relation.Tuple) int { return int(t[0]%3) - 1 } // one in three dropped
	for _, op := range []struct {
		name string
		want float64
		run  func()
	}{
		{"Scatter", 2, func() { g.Scatter(in) }},
		{"HashPartition", 2, func() { g.HashPartition(d, key) }},
		{"HashPartition/wide", 2, func() { g.HashPartition(wide, key) }},
		{"HashPartition/identity", 1, func() { g.HashPartition(parted, key) }},
		{"Route", 2, func() { g.Route(d, plain) }},
		{"RouteFan", 2, func() { g.RouteFan(wide, base, fan) }},
		{"DistributeSpread", 2, func() { g.DistributeSpread(d, sizes, false, pick) }},
		{"DistributeSpread/broadcast", 2, func() { g.DistributeSpread(d, sizes, true, pick) }},
		{"DistributeSpread/wide broadcast", 2, func() { g.DistributeSpread(wide, sizes, true, pick) }},
		{"Spread", 2, func() { g.Spread(wide, sizes) }},
		{"Gather", 1, func() { g.Gather(d) }},
		{"Broadcast", 3, func() { g.Broadcast(d) }},
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
	// The wide broadcast's and the wide fan's one-id-a-tuple vectors are
	// idPool's, and go back there: none is grown past them.
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"wide broadcast DistributeSpread", func() { g.DistributeSpread(wide, sizes, true, pick) }},
		{"wide RouteFan", func() { g.RouteFan(wide, base, fan) }},
	} {
		st := idPool.Stats()
		op.run()
		c.Release()
		if got := idPool.Stats(); got.Gets-st.Gets != 1 || got.Puts-st.Puts != 1 {
			t.Errorf("%s: %d id vectors taken, %d put back, want 1 and 1",
				op.name, got.Gets-st.Gets, got.Puts-st.Puts)
		}
	}
}

// TestFragmentsCostNoHeaders: a distributed relation's fragments are
// views of its arena and its offset vector, so a Local step and a
// hashed HashPartition over 4096 servers allocate at most 8 bytes a
// server beyond their output arenas — the Local step's exact make; the
// exchange's blob comes from the pool. A header and a pointer a fragment
// would read 80.
func TestFragmentsCostNoHeaders(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p, runs = 4096, 20
	d := NewCluster(p).Root().Scatter(big(relation.NewSchema(0, 1), p)) // one row a server
	c := NewCluster(p, withForcedWorkers(1))
	g := c.Root()
	key := []int{0}
	every := relation.SelectGtStep(d.Schema, 0, -1)
	for _, op := range []struct {
		name  string
		arena uint64 // bytes of the output arena outside the pool
		run   func()
	}{
		{"Local", 8 * 2 * p, func() { Local(g, d, every) }},
		{"HashPartition", 0, func() { g.HashPartition(d, key) }},
	} {
		run := func() {
			op.run()
			c.Release()
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > op.arena+8*p {
			t.Errorf("%s over %d servers: %d bytes a run, %.1f a server beyond its arena, want at most 8",
				op.name, p, b, float64(b-min(b, op.arena))/p)
		}
	}
}
