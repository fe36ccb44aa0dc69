package relation

import (
	"coverpack/internal/pool"
	"coverpack/internal/trace"
)

// Cross-run arena recycling (internal/pool): exchange slab blobs, local
// step outputs, kernel scratch and gather buffers are flat []Value
// arenas, recycled within a run and across runs, so the 2nd..Nth cell
// of a sweep stops re-growing them.
//
// Ownership contract. An arena may be released (PutArena) only by an
// owner that can prove no live Relation or View still references any
// part of it. A distributed relation that wrote a fresh arena — a local
// step's output (Fragments) or a scattering, hashing or routing
// exchange's — owns it, and the code that made it frees it after its
// last read (mpc.Group.Free). Views of an arena own nothing: a Slice or
// Collect of fragments, an identity re-partition, a gathered relation, a
// spread's branches. A spread's branches share one blob that no relation
// owns. The mpc.Cluster tracks every arena of a run and, at Release,
// returns whatever no owner freed: a spread's blobs and what an error
// path left behind. Only the whole arena — never a fragment's or a
// branch's part of it — is ever released. Kernel scratch goes back
// before the kernel returns.
//
// Under the arenacheck build tag every arena is filled with a sentinel
// when it is handed out and when it comes back, and a put of an arena
// the pool already holds panics (arenacheck.go): a read after release
// carries the sentinel into an output, and a double release stops the
// run.

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
func GetArena(n int) []Value { return checkGet(arenas.Get(n)) }

// PutArena releases an arena back to the pool. The caller must own the
// entire backing array exclusively — in particular, a fragment's part
// of an exchange blob must never be released, only the whole blob. Undersized and
// oversized arenas are discarded.
func PutArena(a []Value) { arenas.Put(checkPut(a)) }
