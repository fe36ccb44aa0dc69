package hashtab

import (
	"coverpack/internal/pool"
	"coverpack/internal/trace"
)

// Cross-run bucket recycling (internal/pool).
//
// Every simulator run builds and discards many short-lived tables
// (group counts, per-fragment statistics, local aggregation), each
// paying for a slot array plus hash and key arenas. The pools below
// recycle those buffers across runs so a sweep's 2nd..Nth cell stops
// re-allocating them.
//
// Ownership contract: Release may only be called on tables that are
// provably local — built and dropped inside one call, with every probe
// finished. No table outlives the call that built it: the relation
// kernels (SemiJoin, Join, JoinCount, Degrees, Dedup's first-row list)
// borrow theirs for one call and release it before they return.
//
// Determinism: recycled slot arrays are zeroed before reuse, and hash
// and key arenas are append targets, so a recycled table behaves
// bit-identically to a fresh one.

// Classes run from 8 entries (New's smallest slot array) to 4 Mi
// (16 MiB of slots). A slot array is always a power of two long, so it
// comes from and goes back to its own class.
const (
	minSlotBits = 3
	maxSlotBits = 22
)

var (
	slotPool = pool.New[int32](minSlotBits, maxSlotBits, 0)
	hashPool = pool.New[uint64](minSlotBits, maxSlotBits, 0)
	keyPool  = pool.New[int64](minSlotBits, maxSlotBits, 0)
)

// PoolStats snapshots the bucket-pool counters, summed over the slot,
// hash and key pools.
func PoolStats() trace.PoolStats {
	return slotPool.Stats().Add(hashPool.Stats()).Add(keyPool.Stats())
}

// ResetPoolStats zeroes the bucket-pool counters (test/bench seam).
func ResetPoolStats() {
	slotPool.Reset()
	hashPool.Reset()
	keyPool.Reset()
}

// getSlots returns a zeroed []int32 of exactly size entries.
func getSlots(size int) []int32 {
	s := slotPool.Get(size)[:size]
	clear(s)
	return s
}

// Release returns the table's buffers to the cross-run pools and leaves
// the table unusable. Only call it on provably local tables (built and
// dropped within one call) — never on a table that may still be probed.
func (t *Table) Release() {
	slotPool.Put(t.slots)
	hashPool.Put(t.hashes)
	keyPool.Put(t.keys)
	*t = Table{}
}
