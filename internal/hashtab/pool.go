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
// provably local — built and dropped inside one call, with every probe
// finished. No table outlives the call that built it: the relation
// kernels (SemiJoin, Join, JoinCount, Degrees, Dedup's first-row list)
// borrow theirs for one call and release it before they return.
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

// A pooled buffer travels in a handle, the *[]T its sync.Pool holds.
// A get takes the handle out with the buffer and the Table keeps it; the
// put stores the buffer back into the same handle, so a steady-state put
// boxes nothing. A buffer made on a miss has no handle yet, and its first
// put allocates one.

// take returns the buffer in one of p's handles, and the handle, or
// nil, nil when p is empty.
func take[T any](p *sync.Pool) ([]T, *[]T) {
	if v := p.Get(); v != nil {
		h := v.(*[]T)
		return *h, h
	}
	return nil, nil
}

// give hands s to pools[cl] in handle h (a fresh one when h is nil), or
// discards it when cl < 0.
func give[T any](pools *[slotClasses]sync.Pool, cl int, s []T, h *[]T) {
	if cl < 0 {
		poolDiscards.Add(1)
		return
	}
	poolPuts.Add(1)
	if h == nil {
		h = new([]T)
	}
	*h = s
	pools[cl].Put(h)
}

// getSlots returns a zeroed []int32 of exactly size entries (size must
// be a power of two ≥ 8) and its handle, nil when the pool missed.
func getSlots(size int) ([]int32, *[]int32) {
	if poolingOff.Load() {
		return make([]int32, size), nil
	}
	poolGets.Add(1)
	if cl := slotClass(size); cl >= 0 {
		if s, h := take[int32](&slotPools[cl]); h != nil {
			poolHits.Add(1)
			clear(s)
			return s, h
		}
	}
	poolMisses.Add(1)
	return make([]int32, size), nil
}

// putSlots returns a slot array got with handle h to its pool.
func putSlots(s []int32, h *[]int32) {
	if s == nil {
		return
	}
	cl := -1
	if !poolingOff.Load() {
		cl = slotClass(len(s))
	}
	give(&slotPools, cl, s, h)
}

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

// getArena returns a zero-length hash or key arena with capacity ≥ n
// from pools, and its handle, nil when the pool missed.
func getArena[T any](pools *[slotClasses]sync.Pool, n int) ([]T, *[]T) {
	if n <= 0 {
		return nil, nil
	}
	if poolingOff.Load() {
		return make([]T, 0, n), nil
	}
	poolGets.Add(1)
	cl := ceilClass(n)
	if cl < 0 {
		poolMisses.Add(1)
		return make([]T, 0, n), nil
	}
	if s, h := take[T](&pools[cl]); h != nil {
		poolHits.Add(1)
		return s[:0], h
	}
	poolMisses.Add(1)
	return make([]T, 0, 1<<(cl+minSlotBits)), nil
}

// putArena returns an arena got with handle h to pools, by capacity.
func putArena[T any](pools *[slotClasses]sync.Pool, s []T, h *[]T) {
	if s == nil {
		return
	}
	cl := -1
	if !poolingOff.Load() {
		cl = capClass(cap(s))
	}
	give(pools, cl, s[:0], h)
}

// Release returns the table's buffers to the cross-run pools and leaves
// the table unusable. Only call it on provably local tables (built and
// dropped within one call) — never on a table that may still be probed.
func (t *Table) Release() {
	putSlots(t.slots, t.slotsBox)
	putArena(&hashPools, t.hashes, t.hashesBox)
	putArena(&keyPools, t.keys, t.keysBox)
	*t = Table{}
}
