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
//   - Exchanges cut their input's rows, one arena in server order, into
//     ranges of consecutive rows (Group.scratch) and run the one
//     exchange kernel (exchange.go) over them; its output does not
//     depend on where the cuts fall, and a small exchange or a
//     one-worker cluster is the same kernel over one chunk. Per-server
//     steps (Local, and Broadcast's copies through it) build server i's
//     fragment from server i's input alone, and Emit sums the servers'
//     counts in server order.
//
//   - Parallel branches run concurrently on sub-groups whose recorder
//     is replaced by a per-branch buffer; after all branches finish, the
//     buffers are replayed into the parent recorder in branch order, the
//     branch Stats are folded exactly as the inline loop folds them, and
//     the branches' counts come back in branch order with the
//     lowest-index error.
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
// (inline under the sequential engine). It makes *Group a
// relation.Forker, so Local's server fork shares the exchanges' pool
// and token budget; fn must not charge the group.
func (g *Group) Fork(n int, fn func(i int)) { g.cluster.fork(n, fn) }

// Emit is the emit step: server i of the first n emits count(i) join
// results, and Emit returns their sum, saturating at math.MaxInt64
// (relation.AddSat). Emission is free in the model, so nothing is
// charged. Under the sequential engine the counts run inline and are
// summed as they come; under a parallel cluster they run across the
// worker pool into per-server sums held in an exchange scratch, summed
// in server order afterwards. count must not charge the group.
func (g *Group) Emit(n int, count func(i int) int64) int64 {
	if g.cluster.workers <= 1 || n <= 1 {
		var total int64
		for i := range n {
			total = relation.AddSat(total, count(i))
		}
		return total
	}
	x := getScratch()
	x.sums = sized(x.sums, n)
	g.cluster.fork(n, func(i int) { x.sums[i] = count(i) })
	total := relation.SumSat(x.sums)
	putScratch(x)
	return total
}
