package mpc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"coverpack/internal/hashtab"
	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// This file is the goroutine-parallel execution engine. The simulator's
// observable artifacts — output tuples, Stats, trace events, observer
// calls — are part of the reproduction's measured results, so the engine
// is built around one invariant: for any worker count, every operation
// produces byte-identical results to the sequential path.
//
// The mechanism is deterministic decomposition + ordered merge:
//
//   - Data-parallel exchanges (HashPartition, Route, SendTo, Distribute,
//     DistributeSpread, Broadcast, Gather, Local, Scatter) split the
//     flattened fragment-major tuple stream into index-ordered chunks.
//     Each chunk appends its output to its own shard of a
//     relation.Builder (one shard per chunk per destination) and counts
//     received units in a private recv vector. Shards are concatenated
//     in chunk order — which is the flattened input order, i.e. exactly
//     the order the sequential loop appends in — and recv vectors are
//     summed, so the single chargeRound call at the end sees the same
//     numbers in the same order.
//
//   - Parallel branches run concurrently on sub-groups whose recorder
//     and load observer are replaced by per-branch buffers; after all
//     branches finish, the buffers are replayed into the parent
//     recorder/observer in branch order and the branch Stats are folded
//     exactly as the sequential loop folds them.
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

// Workers reports the cluster's worker-pool size.
func (c *Cluster) Workers() int { return c.workers }

const (
	// parThreshold is the minimum flattened tuple count before an
	// exchange fans out; below it the sequential loop wins on overhead.
	parThreshold = 1024
	// minChunk keeps chunks coarse enough to amortize per-chunk setup.
	minChunk = 256
	// chunkFactor over-decomposes the input per worker so uneven
	// fragments still balance across the pool.
	chunkFactor = 4
)

// parallel reports whether an exchange over n tuples should fan out.
func (g *Group) parallel(n int) bool {
	return g.cluster.workers > 1 && n >= parThreshold
}

// fork runs fn(0..n-1) across the worker pool and returns when all
// calls have finished. The caller participates; extra goroutines are
// admitted by the cluster token pool (capacity workers−1). Indices are
// distributed by a work-stealing morsel queue (morsel.go): each
// participant drains its own contiguous range and steals half of the
// fullest remaining range when it empties, with all shared state in
// cache-line-padded per-participant words. A panic in any call is
// re-raised on the caller (lowest index wins), preserving the
// sequential engine's panic semantics for bad routes.
func (c *Cluster) fork(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if c.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	want := c.workers
	if n < want {
		want = n
	}
	// Reserve tokens before seeding the queue so the initial ranges
	// split over the real participant count; a pool-exhausted fork
	// degrades to the caller draining one full range inline.
	spawned := 0
reserve:
	for extra := 1; extra < want; extra++ {
		select {
		case c.tokens <- struct{}{}:
			spawned++
		default:
			break reserve // pool exhausted; the caller absorbs the rest
		}
	}
	q := newMorselQueue(spawned+1, n)
	panics := make([]any, n)
	var panicked atomic.Bool
	var wg sync.WaitGroup
	for w := 1; w <= spawned; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { <-c.tokens }()
			q.run(w, fn, panics, &panicked)
		}(w)
	}
	q.run(0, fn, panics, &panicked)
	wg.Wait()
	mEngineForks.Inc()
	mEngineForkTasks.Add(uint64(n))
	mEngineForkGoroutines.Add(uint64(spawned))
	q.flush()
	if panicked.Load() {
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
}

// Fork runs fn(i) for i in [0, n) across the cluster's worker pool
// (inline under the sequential engine). It parallelizes local,
// communication-free computation: fn must not charge the group and its
// only shared writes must go to caller-owned per-index slots, so the
// merged result is independent of scheduling.
func (g *Group) Fork(n int, fn func(i int)) { g.cluster.fork(n, fn) }

// Workers reports the cluster's worker-pool size. Together with Fork
// and ParKernels this makes *Group satisfy relation.Forker, so
// local-operator kernels can fan their phases out over the same pool
// (and the same token budget) as the exchanges.
func (g *Group) Workers() int { return g.cluster.workers }

// ParKernels reports whether the run's local operators may take their
// morsel-parallel forms (WithParKernels).
func (g *Group) ParKernels() bool { return g.cluster.parKernels }

// frange is one contiguous run of tuples within a fragment; base is the
// flattened (fragment-major) index of its first tuple.
type frange struct {
	frag, lo, hi, base int
}

// flatChunks splits d's flattened tuple stream into index-ordered
// chunks of roughly equal size. Chunk boundaries affect only scheduling
// granularity, never results: outputs are merged in chunk order, which
// equals flattened order for any decomposition.
func flatChunks(d *DistRelation, workers int) [][]frange {
	total := d.Len()
	nchunks := workers * chunkFactor
	if cap := (total + minChunk - 1) / minChunk; nchunks > cap {
		nchunks = cap
	}
	if nchunks < 1 {
		nchunks = 1
	}
	per := (total + nchunks - 1) / nchunks
	out := make([][]frange, 0, nchunks)
	var cur []frange
	room := per
	base := 0
	for fi, f := range d.Frags {
		n := f.Len()
		for lo := 0; lo < n; {
			take := n - lo
			if take > room {
				take = room
			}
			cur = append(cur, frange{frag: fi, lo: lo, hi: lo + take, base: base})
			base += take
			lo += take
			room -= take
			if room == 0 {
				out = append(out, cur)
				cur = nil
				room = per
			}
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// forEachTuple visits the tuples of the chunk in flattened order. Rows
// are arena views valid for the duration of fn (the callbacks copy on
// append, never retain).
func forEachTuple(d *DistRelation, chunk []frange, fn func(f *relation.Relation, src int, t relation.Tuple, flat int)) {
	for _, r := range chunk {
		f := d.Frags[r.frag]
		for i := r.lo; i < r.hi; i++ {
			fn(f, r.frag, f.Row(i), r.base+i-r.lo)
		}
	}
}

// foldRecv sums per-chunk recv vectors into one of length n.
func foldRecv(parts [][]int, n int) []int {
	recv := make([]int, n)
	for _, p := range parts {
		for i, v := range p {
			recv[i] += v
		}
	}
	return recv
}

// buildFrags assembles one fragment per builder, in parallel. The built
// arenas come from the cross-run pool (see Builder.Build) and are
// exclusively owned by the fragments, so they are tracked on the
// cluster for end-of-run recycling.
func (c *Cluster) buildFrags(builders []*relation.Builder) []*relation.Relation {
	frags := make([]*relation.Relation, len(builders))
	c.fork(len(builders), func(i int) { frags[i] = builders[i].Build() })
	for _, f := range frags {
		c.trackArena(f.Data())
	}
	return frags
}

// parHashPartition is HashPartition's fan-out path. When record is set
// it additionally captures per-destination packed source indices for
// the plan cache: each chunk collects its own per-destination lists,
// and the lists are concatenated in chunk order — which equals the
// flattened input order the sequential recorder appends in.
func (g *Group) parHashPartition(d *DistRelation, pos []int, record bool) (*DistRelation, *exchangePlan) {
	k := g.size
	chunks := flatChunks(d, g.cluster.workers)
	m := len(chunks)
	builders := make([]*relation.Builder, k)
	for i := range builders {
		builders[i] = relation.NewBuilder(d.Schema, m)
	}
	recvs := make([][]int, m)
	var dests [][][]uint64
	if record {
		dests = make([][][]uint64, m)
	}
	charge := g.cluster.chargeSelfSends
	g.cluster.fork(m, func(ci int) {
		recv := getSendList(k)
		var dest [][]uint64
		if record {
			dest = make([][]uint64, k)
		}
		// Iterate franges directly (not forEachTuple): recording needs
		// the in-fragment row index for the packed source reference.
		for _, rg := range chunks[ci] {
			f := d.Frags[rg.frag]
			src := rg.frag
			for i := rg.lo; i < rg.hi; i++ {
				t := f.Row(i)
				dst := int(hashtab.Hash(t, pos) % uint64(k))
				builders[dst].Shard(ci).Add(t)
				if record {
					dest[dst] = append(dest[dst], uint64(src)<<32|uint64(i))
				}
				if charge || dst != src || src >= k {
					recv[dst]++
				}
			}
		}
		recvs[ci] = recv
		if record {
			dests[ci] = dest
		}
	})
	out := &DistRelation{Schema: d.Schema, Frags: g.cluster.buildFrags(builders)}
	recv := foldRecv(recvs, k)
	putSendLists(recvs)
	g.chargeRound(trace.OpHashPartition, recv)
	var plan *exchangePlan
	if record {
		dest := make([][]uint64, k)
		for dst := 0; dst < k; dst++ {
			n := 0
			for ci := 0; ci < m; ci++ {
				n += len(dests[ci][dst])
			}
			dl := make([]uint64, 0, n)
			for ci := 0; ci < m; ci++ {
				dl = append(dl, dests[ci][dst]...)
			}
			dest[dst] = dl
		}
		plan = &exchangePlan{dest: dest, recv: recv}
	}
	return out, plan
}

// parRoute is RouteBuf's fan-out path. route must be pure (see Route);
// each chunk goroutine owns its destination buffer.
func (g *Group) parRoute(d *DistRelation, route func(src int, t relation.Tuple, buf []int) []int) *DistRelation {
	k := g.size
	chunks := flatChunks(d, g.cluster.workers)
	m := len(chunks)
	builders := make([]*relation.Builder, k)
	for i := range builders {
		builders[i] = relation.NewBuilder(d.Schema, m)
	}
	recvs := make([][]int, m)
	g.cluster.fork(m, func(ci int) {
		recv := getSendList(k)
		var buf []int
		forEachTuple(d, chunks[ci], func(_ *relation.Relation, src int, t relation.Tuple, _ int) {
			buf = route(src, t, buf)
			for _, dest := range buf {
				if dest < 0 || dest >= k {
					panic(fmt.Sprintf("mpc: route destination %d outside group of size %d", dest, k))
				}
				builders[dest].Shard(ci).Add(t)
				recv[dest]++
			}
		})
		recvs[ci] = recv
	})
	out := &DistRelation{Schema: d.Schema, Frags: g.cluster.buildFrags(builders)}
	recv := foldRecv(recvs, k)
	putSendLists(recvs)
	g.chargeRound(trace.OpRoute, recv)
	return out
}

// parSendTo is SendTo's fan-out path: destination i%k of the flattened
// index is position-determined, so chunks assign independently.
func (g *Group) parSendTo(d *DistRelation, k int) *DistRelation {
	chunks := flatChunks(d, g.cluster.workers)
	m := len(chunks)
	builders := make([]*relation.Builder, k)
	for i := range builders {
		builders[i] = relation.NewBuilder(d.Schema, m)
	}
	recvs := make([][]int, m)
	rlen := maxInt(k, g.size)
	g.cluster.fork(m, func(ci int) {
		recv := getSendList(rlen)
		forEachTuple(d, chunks[ci], func(_ *relation.Relation, _ int, t relation.Tuple, flat int) {
			dest := flat % k
			builders[dest].Shard(ci).Add(t)
			recv[dest]++
		})
		recvs[ci] = recv
	})
	out := &DistRelation{Schema: d.Schema, Frags: g.cluster.buildFrags(builders)}
	recv := foldRecv(recvs, rlen)
	putSendLists(recvs)
	g.chargeRound(trace.OpSendTo, recv)
	return out
}

// parDistribute is Distribute's fan-out path; route must be pure under
// a parallel engine (see Distribute).
func (g *Group) parDistribute(d *DistRelation, sizes []int, offset []int, total int,
	route func(src *relation.Relation, t relation.Tuple) []BranchDest) []*DistRelation {

	chunks := flatChunks(d, g.cluster.workers)
	m := len(chunks)
	builders := make([][]*relation.Builder, len(sizes))
	for b, k := range sizes {
		builders[b] = make([]*relation.Builder, k)
		for s := range builders[b] {
			builders[b][s] = relation.NewBuilder(d.Schema, m)
		}
	}
	recvs := make([][]int, m)
	rlen := maxInt(total, g.size)
	g.cluster.fork(m, func(ci int) {
		recv := getSendList(rlen)
		forEachTuple(d, chunks[ci], func(f *relation.Relation, _ int, t relation.Tuple, _ int) {
			for _, dest := range route(f, t) {
				if dest.Branch < 0 || dest.Branch >= len(sizes) ||
					dest.Server < 0 || dest.Server >= sizes[dest.Branch] {
					panic(fmt.Sprintf("mpc: Distribute destination %+v out of range", dest))
				}
				builders[dest.Branch][dest.Server].Shard(ci).Add(t)
				recv[offset[dest.Branch]+dest.Server]++
			}
		})
		recvs[ci] = recv
	})
	out := g.assembleBranches(d.Schema, sizes, builders)
	recv := foldRecv(recvs, rlen)
	putSendLists(recvs)
	g.chargeRound(trace.OpDistribute, recv)
	return out
}

// parDistributeSpread is DistributeSpread's fan-out path. Round-robin
// state is order-dependent, so it runs two passes: count per-chunk
// round-robin sends per branch, prefix-sum the counts into per-chunk
// starting rotations, then assign. The rotation each tuple sees equals
// the number of round-robin sends to its branch strictly before it in
// flattened order — exactly the sequential counter value.
func (g *Group) parDistributeSpread(d *DistRelation, sizes []int, offset []int, total int,
	pick func(src *relation.Relation, t relation.Tuple) []BranchSend) []*DistRelation {

	nb := len(sizes)
	chunks := flatChunks(d, g.cluster.workers)
	m := len(chunks)

	counts := make([][]int, m)
	g.cluster.fork(m, func(ci int) {
		cnt := getSendList(nb)
		forEachTuple(d, chunks[ci], func(f *relation.Relation, _ int, t relation.Tuple, _ int) {
			for _, s := range pick(f, t) {
				if s.Branch < 0 || s.Branch >= nb {
					panic(fmt.Sprintf("mpc: DistributeSpread branch %d out of range", s.Branch))
				}
				if !s.Broadcast {
					cnt[s.Branch]++
				}
			}
		})
		counts[ci] = cnt
	})
	starts := make([][]int, m)
	run := make([]int, nb)
	for ci := 0; ci < m; ci++ {
		starts[ci] = append([]int(nil), run...)
		for b, c := range counts[ci] {
			run[b] += c
		}
	}
	putSendLists(counts)

	builders := make([][]*relation.Builder, nb)
	for b, k := range sizes {
		builders[b] = make([]*relation.Builder, k)
		for s := range builders[b] {
			builders[b][s] = relation.NewBuilder(d.Schema, m)
		}
	}
	recvs := make([][]int, m)
	rlen := maxInt(total, g.size)
	g.cluster.fork(m, func(ci int) {
		rr := append([]int(nil), starts[ci]...)
		recv := getSendList(rlen)
		forEachTuple(d, chunks[ci], func(f *relation.Relation, _ int, t relation.Tuple, _ int) {
			for _, s := range pick(f, t) {
				if s.Broadcast {
					for srv := 0; srv < sizes[s.Branch]; srv++ {
						builders[s.Branch][srv].Shard(ci).Add(t)
						recv[offset[s.Branch]+srv]++
					}
					continue
				}
				srv := rr[s.Branch] % sizes[s.Branch]
				rr[s.Branch]++
				builders[s.Branch][srv].Shard(ci).Add(t)
				recv[offset[s.Branch]+srv]++
			}
		})
		recvs[ci] = recv
	})
	out := g.assembleBranches(d.Schema, sizes, builders)
	recv := foldRecv(recvs, rlen)
	putSendLists(recvs)
	g.chargeRound(trace.OpDistribute, recv)
	return out
}

// assembleBranches builds the per-branch DistRelations from the
// per-(branch, server) builders, fanning the copies out over the pool.
func (g *Group) assembleBranches(schema relation.Schema, sizes []int, builders [][]*relation.Builder) []*DistRelation {
	out := make([]*DistRelation, len(sizes))
	type target struct {
		frags []*relation.Relation
		i     int
		bld   *relation.Builder
	}
	var targets []target
	for b, k := range sizes {
		out[b] = &DistRelation{Schema: schema, Frags: make([]*relation.Relation, k)}
		for s := 0; s < k; s++ {
			targets = append(targets, target{frags: out[b].Frags, i: s, bld: builders[b][s]})
		}
	}
	g.cluster.fork(len(targets), func(i int) {
		t := targets[i]
		t.frags[t.i] = t.bld.Build()
	})
	for _, t := range targets {
		g.cluster.trackArena(t.frags[t.i].Data())
	}
	return out
}

// collect concatenates fragments in order, fanning the copy out when
// the relation is large. Each fragment's arena is copied straight into
// its slice of one output arena (offsets are in values, rows × arity),
// so the merged relation is built with a single allocation.
func (g *Group) collect(d *DistRelation) *relation.Relation {
	total := d.Len()
	if !g.parallel(total) {
		return d.Collect()
	}
	arity := d.Schema.Len()
	offs := make([]int, len(d.Frags))
	off := 0
	for i, f := range d.Frags {
		offs[i] = off
		off += f.Len() * arity
	}
	// Every position is overwritten (the offsets tile the arena), so a
	// recycled arena is safe despite its stale contents.
	data := relation.GetArena(total * arity)[:total*arity]
	g.cluster.fork(len(d.Frags), func(i int) {
		copy(data[offs[i]:], d.Frags[i].Data())
	})
	g.cluster.trackArena(data)
	return relation.FromData(d.Schema, data, total)
}
