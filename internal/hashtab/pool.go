package hashtab

import (
	"sync"
	"sync/atomic"

	"coverpack/internal/trace"
)

// Cross-run bucket recycling.
//
// Every simulator run builds and discards many short-lived tables
// (group counts, per-fragment statistics, local aggregation), each
// paying for a fresh slot array plus hash/key arenas. The pools below
// recycle those buffers across runs so a sweep's 2nd..Nth cell stops
// re-allocating them.
//
// Ownership contract: Release may only be called on tables that are
// provably local — built and dropped inside one function. Retained key
// indexes (internal/relation/index.go) live as long as their relation
// and are shared across goroutines via atomic.Value; they are never
// released.
//
// Determinism: recycled slot arrays are zeroed before reuse, and
// hash/key arenas are append targets, so a recycled table behaves
// bit-identically to a fresh one. The counters are trace.PoolStats
// diagnostics only.

// Slot arrays are pooled by exact power-of-two size class; hash and key
// arenas by capacity class like the relation arena pool.
const (
	minSlotBits = 3  // slot arrays start at 8 (New's minimum)
	maxSlotBits = 22 // 4 Mi slots = 16 MiB
	slotClasses = maxSlotBits - minSlotBits + 1
)

var (
	slotPools [slotClasses]sync.Pool
	hashPools [slotClasses]sync.Pool // []uint64 by capacity class
	keyPools  [slotClasses]sync.Pool // []int64 by capacity class

	poolingOff atomic.Bool

	poolGets     atomic.Uint64
	poolHits     atomic.Uint64
	poolMisses   atomic.Uint64
	poolPuts     atomic.Uint64
	poolDiscards atomic.Uint64
)

// SetPooling toggles cross-run bucket recycling globally. Off, the
// constructors degrade to plain make and Release discards — the
// pre-pooling behavior.
func SetPooling(on bool) { poolingOff.Store(!on) }

// PoolingEnabled reports the current toggle state.
func PoolingEnabled() bool { return !poolingOff.Load() }

// PoolStats snapshots the bucket-pool counters.
func PoolStats() trace.PoolStats {
	return trace.PoolStats{
		Gets:     poolGets.Load(),
		Hits:     poolHits.Load(),
		Misses:   poolMisses.Load(),
		Puts:     poolPuts.Load(),
		Discards: poolDiscards.Load(),
	}
}

// ResetPoolStats zeroes the bucket-pool counters (test/bench seam).
func ResetPoolStats() {
	poolGets.Store(0)
	poolHits.Store(0)
	poolMisses.Store(0)
	poolPuts.Store(0)
	poolDiscards.Store(0)
}

// slotClass returns the class index for an exact power-of-two slot
// count, or -1 when out of range.
func slotClass(size int) int {
	for bits := minSlotBits; bits <= maxSlotBits; bits++ {
		if 1<<bits == size {
			return bits - minSlotBits
		}
	}
	return -1
}

// getSlots returns a zeroed []int32 of exactly size entries (size must
// be a power of two ≥ 8).
func getSlots(size int) []int32 {
	if poolingOff.Load() {
		return make([]int32, size)
	}
	poolGets.Add(1)
	cl := slotClass(size)
	if cl < 0 {
		poolMisses.Add(1)
		return make([]int32, size)
	}
	if v := slotPools[cl].Get(); v != nil {
		poolHits.Add(1)
		s := *v.(*[]int32)
		clear(s)
		return s
	}
	poolMisses.Add(1)
	return make([]int32, size)
}

func putSlots(s []int32) {
	if s == nil {
		return
	}
	if poolingOff.Load() {
		poolDiscards.Add(1)
		return
	}
	cl := slotClass(len(s))
	if cl < 0 {
		poolDiscards.Add(1)
		return
	}
	poolPuts.Add(1)
	poolSlots(cl, s)
}

// poolSlots, poolHashes and poolKeys hand a buffer to its class's
// sync.Pool, boxing the slice header. They are functions of their own
// because taking &s in putSlots (or &h, &k in putHashes, putKeys) would
// move that parameter to the heap on every call, so even releasing a
// zero Table, or releasing with pooling off, would allocate.
func poolSlots(cl int, s []int32)   { slotPools[cl].Put(&s) }
func poolHashes(cl int, h []uint64) { hashPools[cl].Put(&h) }
func poolKeys(cl int, k []int64)    { keyPools[cl].Put(&k) }

// capClass returns the largest class whose capacity (1<<bits entries)
// fits within c, or -1 when c is below the smallest class. Like the
// relation arena pool, releasing into the floor class keeps Get's
// capacity guarantee.
func capClass(c int) int {
	if c < 1<<minSlotBits {
		return -1
	}
	bits := minSlotBits
	for bits < maxSlotBits && 1<<(bits+1) <= c {
		bits++
	}
	return bits - minSlotBits
}

// ceilClass returns the smallest class with capacity ≥ n, or -1.
func ceilClass(n int) int {
	bits := minSlotBits
	for bits <= maxSlotBits && 1<<bits < n {
		bits++
	}
	if bits > maxSlotBits {
		return -1
	}
	return bits - minSlotBits
}

// getHashes returns a zero-length []uint64 with capacity ≥ n.
func getHashes(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	if poolingOff.Load() {
		return make([]uint64, 0, n)
	}
	poolGets.Add(1)
	cl := ceilClass(n)
	if cl < 0 {
		poolMisses.Add(1)
		return make([]uint64, 0, n)
	}
	if v := hashPools[cl].Get(); v != nil {
		poolHits.Add(1)
		return (*v.(*[]uint64))[:0]
	}
	poolMisses.Add(1)
	return make([]uint64, 0, 1<<(cl+minSlotBits))
}

func putHashes(h []uint64) {
	if h == nil {
		return
	}
	if poolingOff.Load() {
		poolDiscards.Add(1)
		return
	}
	cl := capClass(cap(h))
	if cl < 0 {
		poolDiscards.Add(1)
		return
	}
	poolPuts.Add(1)
	poolHashes(cl, h[:0])
}

// getKeys returns a zero-length []int64 with capacity ≥ n.
func getKeys(n int) []int64 {
	if n <= 0 {
		return nil
	}
	if poolingOff.Load() {
		return make([]int64, 0, n)
	}
	poolGets.Add(1)
	cl := ceilClass(n)
	if cl < 0 {
		poolMisses.Add(1)
		return make([]int64, 0, n)
	}
	if v := keyPools[cl].Get(); v != nil {
		poolHits.Add(1)
		return (*v.(*[]int64))[:0]
	}
	poolMisses.Add(1)
	return make([]int64, 0, 1<<(cl+minSlotBits))
}

func putKeys(k []int64) {
	if k == nil {
		return
	}
	if poolingOff.Load() {
		poolDiscards.Add(1)
		return
	}
	cl := capClass(cap(k))
	if cl < 0 {
		poolDiscards.Add(1)
		return
	}
	poolPuts.Add(1)
	poolKeys(cl, k[:0])
}

// Release returns the table's buffers to the cross-run pools and leaves
// the table unusable. Only call it on provably local tables (built and
// dropped within one function) — never on retained key indexes or any
// table that may still be probed.
func (t *Table) Release() {
	putSlots(t.slots)
	putHashes(t.hashes)
	putKeys(t.keys)
	t.slots, t.hashes, t.keys = nil, nil, nil
	t.mask = 0
}
