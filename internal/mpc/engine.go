package mpc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"coverpack/internal/relation"
)

// This file is the worker pool under the exchanges. The simulator's
// observable artifacts — output tuples, Stats, trace events — are part
// of the reproduction's measured results, so the pool is built around
// one invariant: every operation produces byte-identical results for
// any worker count.
//
// The mechanism is deterministic decomposition + ordered merge:
//
//   - Exchanges cut the flattened fragment-major tuple stream into
//     index-ordered chunks (flatChunks) and run the one exchange kernel
//     (exchange.go) over them; its output does not depend on where the
//     cuts fall, and a small exchange or a one-worker cluster is the
//     same kernel over one chunk. Per-server steps (Local, and
//     Broadcast's copies through it, Gather's concatenation) write
//     caller-owned per-index slots.
//
//   - Parallel branches run concurrently on sub-groups whose recorder
//     is replaced by a per-branch buffer; after all branches finish, the
//     buffers are replayed into the parent recorder in branch order and
//     the branch Stats are folded exactly as the inline loop folds them.
//
// Work is bounded by a cluster-wide token pool of workers−1 extra
// goroutines; the calling goroutine always participates, so nested
// fan-outs (a Parallel branch issuing a parallel exchange) degrade to
// inline execution instead of deadlocking when the pool is exhausted.

// WithWorkers sets the engine's worker-pool size. 1 (the default) is
// the sequential engine; n > 1 enables goroutine-parallel execution
// with at most n concurrently running goroutines; n <= 0 selects
// runtime.GOMAXPROCS(0). Results are byte-identical for every setting.
//
// When more than one worker is requested but the process has only one
// schedulable CPU (runtime.GOMAXPROCS(0) == 1), the pool cannot run
// anything concurrently — the cluster falls back to the sequential
// engine and records the fallback in Stats.SeqFallback. Results are
// unchanged (the engines are byte-identical by contract); only the
// execution mode differs.
func WithWorkers(n int) Option {
	return func(c *Cluster) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		if n > 1 && runtime.GOMAXPROCS(0) == 1 {
			c.workers = 1
			c.fellBack = true
			mEngineSeqFallbacks.Inc()
			return
		}
		c.workers = n
		c.fellBack = false
	}
}

// withForcedWorkers sets the pool size bypassing the GOMAXPROCS
// fallback. Test seam: the determinism and race suites must exercise
// the concurrent code paths even on single-CPU CI shards.
func withForcedWorkers(n int) Option {
	return func(c *Cluster) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.workers = n
		c.fellBack = false
	}
}

// withChunker replaces chunksOf's cut of every exchange input. Test
// seam: the chunking-invariance fuzz target cuts where it likes, on
// inputs far below parThreshold.
func withChunker(cut func(d *DistRelation) [][]frange) Option {
	return func(c *Cluster) { c.chunker = cut }
}

const (
	// parThreshold is the minimum flattened tuple count before a step
	// fans out; below it one inline chunk wins on overhead.
	parThreshold = 1024
	// minChunk keeps chunks coarse enough to amortize per-chunk setup.
	minChunk = 256
	// chunkFactor over-decomposes the input per worker so uneven
	// fragments still balance across the pool.
	chunkFactor = 4
)

// parallel reports whether a step over n tuples should fan out.
func (g *Group) parallel(n int) bool {
	return g.cluster.workers > 1 && n >= parThreshold
}

// fork runs fn(0..n-1) across the worker pool and returns when all
// calls have finished. The caller participates; extra goroutines are
// admitted by the cluster token pool (capacity workers−1), and a fork
// that finds the pool exhausted — one nested in a Parallel branch, say
// — runs inline on the caller. The participants claim indices from one
// shared atomic counter: the tasks are servers or exchange chunks, so a
// claim is rare next to the work it claims. A panic in any call is
// re-raised on the caller (lowest index wins), preserving the sequential
// engine's panic semantics for bad routes.
func (c *Cluster) fork(n int, fn func(i int)) {
	spawned := 0
	if c.workers > 1 && n > 1 {
	reserve:
		for spawned < min(c.workers, n)-1 {
			select {
			case c.tokens <- struct{}{}:
				spawned++
			default:
				break reserve // pool exhausted; the caller absorbs the rest
			}
		}
		mEngineForks.Inc()
		mEngineForkTasks.Add(uint64(n))
		mEngineForkGoroutines.Add(uint64(spawned))
	}
	if spawned == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	t := &forkTasks{n: n, fn: fn}
	var wg sync.WaitGroup
	wg.Add(spawned)
	for w := 0; w < spawned; w++ {
		go func() {
			defer wg.Done()
			defer func() { <-c.tokens }()
			t.drain()
		}()
	}
	t.drain()
	wg.Wait()
	for _, p := range t.panics {
		if p != nil {
			panic(p)
		}
	}
}

// forkTasks is one fork's task list. next is the shared claim index;
// panics holds each panicking task's value at its index and is
// allocated by the first task that panics.
type forkTasks struct {
	n      int
	fn     func(i int)
	next   atomic.Int64
	mu     sync.Mutex
	panics []any
}

// drain runs claimed tasks until none is left.
func (t *forkTasks) drain() {
	for {
		i := int(t.next.Add(1)) - 1
		if i >= t.n {
			return
		}
		t.run(i)
	}
}

// run runs task i, keeping its panic, if any, for the forker.
func (t *forkTasks) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			if t.panics == nil {
				t.panics = make([]any, t.n)
			}
			t.panics[i] = r
			t.mu.Unlock()
		}
	}()
	t.fn(i)
}

// Fork runs fn(i) for i in [0, n) across the cluster's worker pool
// (inline under the sequential engine). It parallelizes local,
// communication-free computation: fn must not charge the group and its
// only shared writes must go to caller-owned per-index slots, so the
// merged result is independent of scheduling. It makes *Group a
// relation.Forker, so Local's server fork shares the exchanges' pool
// and token budget.
func (g *Group) Fork(n int, fn func(i int)) { g.cluster.fork(n, fn) }

// frange is one contiguous run of tuples within a fragment; base is the
// flattened (fragment-major) index of its first tuple.
type frange struct {
	frag, lo, hi, base int
}

// flatChunks splits d's flattened stream of total tuples into at most
// nchunks index-ordered chunks of roughly equal size, in x's chunk
// vectors. Where the cuts fall affects only scheduling granularity, never
// results (exchange.go).
func (x *xrun) flatChunks(d *DistRelation, total, nchunks int) [][]frange {
	per := (total + nchunks - 1) / nchunks
	out := x.chunks[:0]
	// One backing array: a fragment adds a range, a cut inside one adds
	// another.
	spans := sized(x.spans, len(d.Frags)+nchunks)[:0]
	start, room, base := 0, per, 0
	for fi, f := range d.Frags {
		n := f.Len()
		for lo := 0; lo < n; {
			take := min(n-lo, room)
			spans = append(spans, frange{frag: fi, lo: lo, hi: lo + take, base: base})
			base += take
			lo += take
			room -= take
			if room == 0 {
				out = append(out, spans[start:len(spans):len(spans)])
				start, room = len(spans), per
			}
		}
	}
	if len(spans) > start {
		out = append(out, spans[start:])
	}
	x.chunks, x.spans = out, spans
	return out
}

// collect concatenates fragments in order into one pooled output arena,
// so the merged relation is built with a single allocation. A parallel
// collect copies each fragment into its slice of the arena at the
// offsets (in values, rows × arity) it keeps in x.
func (g *Group) collect(x *xrun, d *DistRelation) *relation.Relation {
	total := d.Len()
	arity := d.Schema.Len()
	// Every position is overwritten (the fragments tile the arena), so a
	// recycled arena is safe despite its stale contents.
	data := relation.GetArena(total * arity)[:total*arity]
	if g.parallel(total) {
		offs, off := sized(x.offs, len(d.Frags)), 0
		for i, f := range d.Frags {
			offs[i] = off
			off += f.Len() * arity
		}
		x.offs = offs
		g.cluster.fork(len(d.Frags), func(i int) { copy(data[offs[i]:], d.Frags[i].Data()) })
	} else {
		off := 0
		for _, f := range d.Frags {
			off += copy(data[off:], f.Data())
		}
	}
	g.cluster.trackArena(data)
	return relation.FromData(d.Schema, data, total)
}
