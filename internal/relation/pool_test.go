package relation

import (
	"runtime"
	"testing"
)

// TestArenaReserveSurvivesGC: a released arena that fits the reserve is
// handed out again after two GC cycles, which empty a sync.Pool.
func TestArenaReserveSurvivesGC(t *testing.T) {
	if !PoolingEnabled() {
		t.Skip("pooling disabled")
	}
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
	if !PoolingEnabled() {
		t.Skip("pooling disabled")
	}
	var held [][]Value
	for n := 0; n < 2*reserveValues; n += 1 << 16 {
		held = append(held, GetArena(1<<16))
	}
	for _, a := range held {
		PutArena(a)
	}
	reserveMu.Lock()
	used, sum := reserveUsed, 0
	for _, st := range reserve {
		for _, a := range st {
			sum += cap(a)
		}
	}
	reserveMu.Unlock()
	if used != sum || used > reserveValues {
		t.Fatalf("reserve holds %d values (accounted %d), budget %d", sum, used, reserveValues)
	}
}

// TestArenaRecycleAllocatesNothing: an arena the reserve takes back
// costs no allocation, neither on Put nor on the Get that reuses it —
// only the sync.Pool path behind a full reserve boxes a slice header.
func TestArenaRecycleAllocatesNothing(t *testing.T) {
	if !PoolingEnabled() {
		t.Skip("pooling disabled")
	}
	reserveMu.Lock()
	saved, savedUsed := reserve, reserveUsed
	reserve, reserveUsed = [arenaClasses][][]Value{}, 0
	reserveMu.Unlock()
	defer func() {
		reserveMu.Lock()
		reserve, reserveUsed = saved, savedUsed
		reserveMu.Unlock()
	}()
	if allocs := testing.AllocsPerRun(100, func() { PutArena(GetArena(1 << 10)) }); allocs != 0 {
		t.Fatalf("GetArena + PutArena through the reserve: %v allocations, want 0", allocs)
	}
}
