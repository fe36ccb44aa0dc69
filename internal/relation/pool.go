package relation

import (
	"coverpack/internal/pool"
	"coverpack/internal/trace"
)

// Cross-run arena recycling (internal/pool): exchange slab blobs,
// kernel scratch and gather buffers are flat []Value arenas, recycled
// across runs so the 2nd..Nth cell of a sweep stops re-growing them.
//
// Ownership contract. An arena may be released (PutArena) only by an
// owner that can prove no live Relation or View still references any
// part of it. For exchange outputs that is the mpc.Cluster: it tracks
// every pooled blob it acquires during a run and releases them all in
// Release(), after the run's Report (scalars only) has been extracted.
// An exchange's blob is the arena of all its output fragments (Frags),
// and a Spread's branches share it, so only the whole blob — never a
// fragment's or a branch's part of it — is ever released. Kernel scratch
// goes back before the kernel returns.

// Size classes run from 256 values (2 KiB) to 16 Mi values (128 MiB);
// smaller requests are not worth pooling, larger ones are left to the
// allocator. The reserve holds up to 4 MiB of released arenas across
// GC cycles.
const (
	minArenaBits  = 8
	maxArenaBits  = 24
	reserveValues = 4 << 20 / 8
)

var arenas = pool.New[Value](minArenaBits, maxArenaBits, reserveValues)

// PoolStats snapshots the arena-pool counters.
func PoolStats() trace.PoolStats { return arenas.Stats() }

// ResetPoolStats zeroes the arena-pool counters (test/bench seam).
func ResetPoolStats() { arenas.Reset() }

// GetArena returns a zero-length []Value with capacity ≥ n, recycled
// from the pool when possible. Contents beyond length 0 are stale; the
// caller must append or fully overwrite before reading.
func GetArena(n int) []Value { return arenas.Get(n) }

// PutArena releases an arena back to the pool. The caller must own the
// entire backing array exclusively — in particular, a fragment's part
// of an exchange blob must never be released, only the whole blob. Undersized and
// oversized arenas are discarded.
func PutArena(a []Value) { arenas.Put(a) }
