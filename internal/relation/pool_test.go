package relation

import (
	"runtime"
	"runtime/debug"
	"testing"

	"coverpack/internal/pool"
)

// swapArenas makes p the arena pool until the returned function puts the
// process's pool back.
func swapArenas(p *pool.Pool[Value]) func() {
	saved := arenas
	arenas = p
	return func() { arenas = saved }
}

// TestArenaReserveSurvivesGC: a released arena that fits the reserve is
// handed out again after two GC cycles, which empty a sync.Pool.
func TestArenaReserveSurvivesGC(t *testing.T) {
	a := GetArena(1 << 10)
	a = append(a, 7)
	PutArena(a)
	runtime.GC()
	runtime.GC()
	before := PoolStats()
	b := GetArena(1 << 10)
	if after := PoolStats(); after.Hits != before.Hits+1 {
		t.Fatalf("Get after two GC cycles missed the pool (hits %d -> %d)", before.Hits, after.Hits)
	}
	if len(b) != 0 || cap(b) < 1<<10 {
		t.Fatalf("recycled arena has len %d cap %d", len(b), cap(b))
	}
	PutArena(b)
}

// TestArenaReserveBounded: the reserve never holds more than its
// budget; the overflow goes to the sync.Pools.
func TestArenaReserveBounded(t *testing.T) {
	var held [][]Value
	for n := 0; n < 2*reserveValues; n += 1 << 16 {
		held = append(held, GetArena(1<<16))
	}
	for _, a := range held {
		PutArena(a)
	}
	used, sum := arenas.Reserved()
	if used != sum || used > reserveValues {
		t.Fatalf("reserve holds %d values (accounted %d), budget %d", sum, used, reserveValues)
	}
}

// TestArenaRecycleAllocatesNothing: an arena the reserve takes back
// costs no allocation, neither on Put nor on the Get that reuses it. It
// runs on a pool whose reserve starts empty.
func TestArenaRecycleAllocatesNothing(t *testing.T) {
	defer swapArenas(pool.New[Value](minArenaBits, maxArenaBits, reserveValues))()
	if allocs := testing.AllocsPerRun(100, func() { PutArena(GetArena(1 << 10)) }); allocs != 0 {
		t.Fatalf("GetArena + PutArena through the reserve: %v allocations, want 0", allocs)
	}
}

// TestArenaPoolPutAllocatesNothing: with no room in the reserve (here, a
// pool without one) an arena goes to its class's sync.Pool, and the put
// reuses the handle an earlier get parked, so a steady-state round trip
// through the pool boxes nothing.
func TestArenaPoolPutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer swapArenas(pool.New[Value](minArenaBits, maxArenaBits, 0))()
	if allocs := testing.AllocsPerRun(100, func() { PutArena(GetArena(1 << 10)) }); allocs != 0 {
		t.Fatalf("GetArena + PutArena through the sync.Pool: %v allocations, want 0", allocs)
	}
}
