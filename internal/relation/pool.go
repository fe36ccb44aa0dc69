package relation

import (
	"sync"
	"sync/atomic"

	"coverpack/internal/trace"
)

// Cross-run arena recycling.
//
// A sweep executes many simulator runs back to back, and every run
// grows the same shapes of arena: exchange slab blobs, builder shard
// concatenations, gather buffers. The pool below recycles those flat
// []Value arenas across runs so the 2nd..Nth cell of a sweep reaches an
// allocation steady state instead of re-growing every arena from zero.
//
// Ownership contract. An arena may be released (PutArena) only by an
// owner that can prove no live Relation still references any part of
// it. In practice that is the mpc.Cluster: it tracks every pooled blob
// it acquires during a run and releases them all in Release(), after
// the run's Report (scalars only) has been extracted. Slab blobs are
// shared by many relations (NewSlabCounts), so only the whole blob —
// never an individual relation's sub-slice — is ever released.
//
// Determinism. Recycled arenas are returned with length 0 (append
// targets) or are fully overwritten before any read, and no observable
// artifact depends on slice capacity, so pooling on/off cannot change
// reports, loads, or traces. The counters are trace.PoolStats
// diagnostics only.

// Size classes are powers of two from 1<<minArenaBits to
// 1<<maxArenaBits values. Smaller requests are not worth pooling;
// larger ones (≥128 MiB at 8-byte values) are left to the allocator.
const (
	minArenaBits = 8  // 256 values = 2 KiB
	maxArenaBits = 24 // 16 Mi values = 128 MiB
	arenaClasses = maxArenaBits - minArenaBits + 1
)

var (
	arenaPools [arenaClasses]sync.Pool

	// poolingOff is inverted so the zero value means "enabled".
	poolingOff atomic.Bool

	poolGets     atomic.Uint64
	poolHits     atomic.Uint64
	poolMisses   atomic.Uint64
	poolPuts     atomic.Uint64
	poolDiscards atomic.Uint64
)

// SetPooling toggles cross-run arena recycling globally. Off, GetArena
// degrades to plain make and PutArena discards — the pre-pooling
// allocation behavior, byte-identical in every observable artifact.
func SetPooling(on bool) { poolingOff.Store(!on) }

// PoolingEnabled reports the current toggle state.
func PoolingEnabled() bool { return !poolingOff.Load() }

// PoolStats snapshots the arena-pool counters.
func PoolStats() trace.PoolStats {
	return trace.PoolStats{
		Gets:     poolGets.Load(),
		Hits:     poolHits.Load(),
		Misses:   poolMisses.Load(),
		Puts:     poolPuts.Load(),
		Discards: poolDiscards.Load(),
	}
}

// ResetPoolStats zeroes the arena-pool counters (test/bench seam).
func ResetPoolStats() {
	poolGets.Store(0)
	poolHits.Store(0)
	poolMisses.Store(0)
	poolPuts.Store(0)
	poolDiscards.Store(0)
}

// classFor returns the smallest size class holding n values, or -1 when
// n exceeds the largest class.
func classFor(n int) int {
	bits := minArenaBits
	for bits <= maxArenaBits && 1<<bits < n {
		bits++
	}
	if bits > maxArenaBits {
		return -1
	}
	return bits - minArenaBits
}

// classOf returns the largest size class whose capacity fits entirely
// within c, or -1 when c is below the smallest class. Releasing into
// the floor class keeps the Get invariant: any arena stored in class k
// has capacity ≥ 1<<(k+minArenaBits).
func classOf(c int) int {
	if c < 1<<minArenaBits {
		return -1
	}
	bits := minArenaBits
	for bits < maxArenaBits && 1<<(bits+1) <= c {
		bits++
	}
	return bits - minArenaBits
}

// GetArena returns a zero-length []Value with capacity ≥ n, recycled
// from the pool when possible. Contents beyond length 0 are stale; the
// caller must append or fully overwrite before reading.
func GetArena(n int) []Value {
	if n <= 0 {
		return nil
	}
	if poolingOff.Load() {
		return make([]Value, 0, n)
	}
	poolGets.Add(1)
	cl := classFor(n)
	if cl < 0 {
		poolMisses.Add(1)
		return make([]Value, 0, n)
	}
	if a := reserveGet(cl); a != nil {
		poolHits.Add(1)
		return a
	}
	if v := arenaPools[cl].Get(); v != nil {
		poolHits.Add(1)
		return (*v.(*[]Value))[:0]
	}
	poolMisses.Add(1)
	return make([]Value, 0, 1<<(cl+minArenaBits))
}

// PutArena releases an arena back to the pool. The caller must own the
// entire backing array exclusively — in particular, a slab sub-slice
// must never be released, only the whole slab blob. Undersized and
// oversized arenas are discarded.
func PutArena(a []Value) {
	if a == nil {
		return
	}
	if poolingOff.Load() {
		poolDiscards.Add(1)
		return
	}
	cl := classOf(cap(a))
	if cl < 0 {
		poolDiscards.Add(1)
		return
	}
	poolPuts.Add(1)
	if reservePut(cl, a[:0]) {
		return
	}
	poolPut(cl, a[:0])
}

// poolPut hands a to its class's sync.Pool, boxing the slice header. It
// is a function of its own because taking &a in PutArena would move
// PutArena's parameter to the heap on every call, so an arena the
// reserve takes would cost an allocation too.
func poolPut(cl int, a []Value) { arenaPools[cl].Put(&a) }

// The reserve: a bounded set of arenas held by ordinary references in
// front of the sync.Pools. A sync.Pool drops what it holds at every
// second GC cycle, and a process whose live heap sits at the runtime's
// 4 MiB floor (a sweep over small instances: a few MB live, tens of MB
// allocated per pass) starts a cycle every few milliseconds, so its
// arenas are freed between one run's Release and the next run's Get
// and the pool never warms up. The reserve keeps up to reserveValues
// worth of released arenas alive across cycles; whatever does not fit
// goes to the sync.Pool as before, so a run with large arenas still
// hands them back to the collector. The retained arenas count as live
// heap, which also moves such a process off the floor.
const reserveValues = 4 << 20 / 8 // 4 MiB of 8-byte values

var (
	reserveMu   sync.Mutex
	reserve     [arenaClasses][][]Value // per class, last in first out
	reserveUsed int                     // Σ cap over reserve, ≤ reserveValues
)

func reserveGet(cl int) []Value {
	reserveMu.Lock()
	defer reserveMu.Unlock()
	st := reserve[cl]
	if len(st) == 0 {
		return nil
	}
	a := st[len(st)-1]
	st[len(st)-1] = nil
	reserve[cl] = st[:len(st)-1]
	reserveUsed -= cap(a)
	return a
}

func reservePut(cl int, a []Value) bool {
	reserveMu.Lock()
	defer reserveMu.Unlock()
	if reserveUsed+cap(a) > reserveValues {
		return false
	}
	reserve[cl] = append(reserve[cl], a)
	reserveUsed += cap(a)
	return true
}

// NewSlabCounts returns len(counts) relations over schema in one
// pooled blob, relation i holding exactly counts[i] rows at value
// offset arity·Σcounts[:i]. The rows are stale until the caller has
// written every one of them through the returned blob — the scatter
// pass of a count-then-scatter exchange. Arena slices are capped at
// their region, so a relation that later grows reallocates on its own.
// The sub-slices share the single blob, so only the returned blob —
// never an individual relation's arena — may be recycled with PutArena,
// once every relation in the slab is dead.
func NewSlabCounts(schema Schema, counts []int) ([]*Relation, []Value) {
	arity := schema.Len()
	total := 0
	for _, c := range counts {
		total += c
	}
	blob := GetArena(total * arity)[:total*arity]
	slab := make([]Relation, len(counts))
	out := make([]*Relation, len(counts))
	lo := 0
	for i, c := range counts {
		hi := lo + c*arity
		slab[i] = Relation{schema: schema, arity: arity, data: blob[lo:hi:hi], rows: c}
		out[i] = &slab[i]
		lo = hi
	}
	return out, blob
}
