// Package mpc simulates the Massively Parallel Computation model of
// Section 1.2: p servers, computation in rounds, and cost measured by
// the load L — the maximum number of communication units (tuples, plus
// O(log N)-bit control integers, each 1 unit) received by any server in
// any round.
//
// The simulator is virtual: a Group is a set of virtual servers, and
// algorithms may split groups into parallel subgroups, mirroring the
// paper's "allocate p_a servers to subquery a" recursions. Accounting is
// hierarchical:
//
//   - Load: the max per-round per-server received units anywhere in the
//     computation (the paper's L).
//   - Rounds: parallel branches overlap, so a Parallel block contributes
//     the max of its branches' round counts, while sequential steps add.
//   - ServersUsed: the peak number of concurrently active virtual
//     servers; Theorem-style statements "computable with O(f) servers at
//     load O(L)" are checked by comparing ServersUsed against f and Load
//     against L.
//
// Data lives in DistRelations: one relation fragment per server of the
// owning group. Tuples move between servers only through the group's
// exchange operations (HashPartition, Route, DistributeSpread, ...),
// which share one kernel (exchange.go) and charge every round. Decisions
// the driver makes from O(p)-size summaries (fragment sizes, heavy-value
// cutoffs) model the free control channel of the paper's lower-bound
// convention; every tuple and every per-value statistic moved between
// servers is charged, including a tuple whose destination is the server
// already holding it (server 0's own fragment in Gather, same-server
// hash destinations in HashPartition): the paper charges a server for
// everything it receives in a round, so the charged loads do not depend
// on the initial placement.
//
// # Observability
//
// A Cluster optionally carries a trace.Recorder (WithRecorder): every
// charged exchange is emitted with its operation kind and per-server
// received-load vector, and Parallel opens one structural span per
// branch so a collected trace mirrors the computation tree. Algorithm
// layers open named phase spans via Group.Span and leave their decision
// log as notes via Group.Note. The default recorder is off and costs
// nothing on the hot path.
//
// # Parallel execution
//
// WithWorkers(n) adds a goroutine pool: a big exchange runs its kernel
// over several chunks at once, and Parallel branches run concurrently.
// All observable results are byte-identical for every worker count (see
// engine.go and DESIGN.md, "Parallel engine determinism contract").
// Route/DistributeSpread callbacks and Local steps must be pure
// (deterministic, no shared mutable state) under a parallel cluster.
package mpc

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"coverpack/internal/hashtab"
	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// Stats aggregates the cost of a (sub)computation.
type Stats struct {
	// Rounds is the number of communication rounds on the critical
	// path (parallel branches overlap).
	Rounds int
	// MaxLoad is the maximum units received by any virtual server in
	// any single round.
	MaxLoad int
	// TotalUnits is the total communication volume in units.
	TotalUnits int64
	// ServersUsed is the peak number of concurrently active servers.
	ServersUsed int
	// SeqFallback records that a parallel engine was requested but the
	// cluster fell back to sequential execution (GOMAXPROCS == 1; see
	// WithWorkers). It is execution metadata, not a cost, and is
	// excluded from String() so formatted outputs are unchanged.
	SeqFallback bool
}

func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d load=%d total=%d servers=%d",
		s.Rounds, s.MaxLoad, s.TotalUnits, s.ServersUsed)
}

// Cluster owns one simulated computation.
type Cluster struct {
	root *Group

	// rec receives spans and exchanges; nil when tracing is off so the
	// hot path pays a single pointer test.
	rec trace.Recorder

	// workers is the engine pool size (1 = everything inline); tokens
	// admits up to workers−1 extra goroutines cluster-wide (see
	// engine.go). fellBack records the WithWorkers GOMAXPROCS=1
	// fallback. chunker is nil outside tests (withChunker).
	workers  int
	tokens   chan struct{}
	fellBack bool
	chunker  func(d *DistRelation) [][]frange

	// hashed and identity count the HashPartitions that hashed and
	// those that took the identity path (see PlanCacheStats). Atomics:
	// concurrent Parallel branches partition at the same time.
	hashed, identity atomic.Uint64

	// arenas tracks every pooled arena blob acquired for this run's
	// exchange outputs (slab blobs, gather buffers). Release returns
	// them all to the cross-run pool once the run's scalar results have
	// been extracted. Mutex-guarded because concurrent Parallel branches
	// acquire arenas at the same time.
	arenaMu sync.Mutex
	arenas  [][]relation.Value
}

// Option configures a Cluster at construction.
type Option func(*Cluster)

// WithRecorder attaches a trace recorder to the cluster. Passing nil or
// a trace.NopRecorder leaves tracing off (the zero-cost default).
func WithRecorder(r trace.Recorder) Option {
	return func(c *Cluster) {
		if _, nop := r.(trace.NopRecorder); nop || r == nil {
			c.rec = nil
			return
		}
		c.rec = r
	}
}

// WithPlanCacheHint has no effect: there is no exchange-plan cache. It
// stays because internal/bench names it, and goes with that harness
// code when the benchmark contract reopens (ROADMAP, Parked).
func WithPlanCacheHint(n int) Option { return func(*Cluster) {} }

// WithSpill has no effect: there is no out-of-core execution. It stays
// because internal/bench names it, and goes with that harness code when
// the benchmark contract reopens (ROADMAP, Parked).
func WithSpill(dir string, budgetBytes int64) Option { return func(*Cluster) {} }

// NewCluster creates a cluster of p servers: a root group of exactly
// that size (the paper's p; virtual usage may exceed it, see
// Stats.ServersUsed).
func NewCluster(p int, opts ...Option) *Cluster {
	if p <= 0 {
		panic(fmt.Sprintf("mpc: cluster needs p >= 1, got %d", p))
	}
	c := &Cluster{workers: 1}
	for _, opt := range opts {
		opt(c)
	}
	if c.workers > 1 {
		c.tokens = make(chan struct{}, c.workers-1)
	}
	c.root = &Group{cluster: c, size: p, used: p}
	return c
}

// Root returns the root group (size p).
func (c *Cluster) Root() *Group { return c.root }

// trackArena registers a pooled arena blob acquired during this run so
// Release can recycle it. nil blobs (zero-size hints) are ignored.
func (c *Cluster) trackArena(blob []relation.Value) {
	if blob == nil {
		return
	}
	c.arenaMu.Lock()
	c.arenas = append(c.arenas, blob)
	c.arenaMu.Unlock()
}

// Release returns every pooled arena acquired during the computation to
// the cross-run pool. Call it exactly once, after all scalar results
// (Stats, emitted counts) have been read: every relation produced by
// this cluster's exchanges is invalid afterwards. Release is
// idempotent; a second call is a no-op.
//
// Release also yields the processor. A sweep is one goroutine that
// calls run after run and never blocks, and the runtime preempts such a
// goroutine only every 10 ms. On a one- or two-P machine a collection
// whose mark worker is waiting for this P stays open that long, and the
// heap overshoots its goal by what the sweep allocates meanwhile, twice
// over (the overshoot is marked live and doubles the next goal): at
// catalog sizes 5-10 MiB on a 4 MiB heap, in some processes and not in
// others. One scheduling point per run bounds the wait by a run's
// length.
func (c *Cluster) Release() {
	runtime.Gosched()
	c.arenaMu.Lock()
	defer c.arenaMu.Unlock()
	for _, a := range c.arenas {
		relation.PutArena(a)
	}
	clear(c.arenas)
	c.arenas = c.arenas[:0]
}

// Stats returns the accumulated cost of the whole computation so far.
func (c *Cluster) Stats() Stats {
	s := c.root.Stats()
	s.SeqFallback = c.fellBack
	return s
}

// PlanCacheStats reports the cluster's HashPartition counts in the shape
// internal/bench reads: PartitionHits counts the exchanges that took the
// identity path and Misses those that hashed. Hits is always 0: there is
// no exchange-plan cache. It goes with that harness code when the
// benchmark contract reopens (ROADMAP, Parked).
func (c *Cluster) PlanCacheStats() trace.CacheStats {
	return trace.CacheStats{Misses: c.hashed.Load(), PartitionHits: c.identity.Load()}
}

// Group is a set of virtual servers executing one (sub)computation.
type Group struct {
	cluster *Cluster
	size    int
	stats   Stats
	used    int // peak concurrent servers within this group's lifetime

	// rec, when non-nil, overrides the cluster's recorder for this
	// group and its descendants. Concurrent Parallel branches record
	// into per-branch buffers through it; the buffers are replayed in
	// branch order afterwards.
	rec trace.Recorder
}

// recorder returns the effective trace recorder for this group.
func (g *Group) recorder() trace.Recorder {
	if g.rec != nil {
		return g.rec
	}
	return g.cluster.rec
}

// child creates a sub-group that inherits this group's recorder
// override (if any).
func (g *Group) child(size int) *Group {
	return &Group{cluster: g.cluster, size: size, rec: g.rec}
}

// Size returns the number of servers in the group.
func (g *Group) Size() int { return g.size }

// Stats returns the cost charged to this group so far.
func (g *Group) Stats() Stats {
	s := g.stats
	if s.ServersUsed < g.used {
		s.ServersUsed = g.used
	}
	return s
}

// chargeRound records one communication round of the given operation
// kind with the given per-destination received unit counts.
func (g *Group) chargeRound(op trace.Op, recv []int) {
	m := 0
	var total int64
	for _, r := range recv {
		if r > m {
			m = r
		}
		total += int64(r)
	}
	if rec := g.recorder(); rec != nil {
		rec.Exchange(op, recv)
	}
	g.stats.Rounds++
	if m > g.stats.MaxLoad {
		g.stats.MaxLoad = m
	}
	g.stats.TotalUnits += total
	if g.size > g.used {
		g.used = g.size
	}
	// Observation-only: the live per-round load histograms read the same
	// max/total the Stats fold just consumed.
	observeRound(m, total)
}

// charge charges x.recv as one round of op and puts x back.
func (g *Group) charge(op trace.Op, x *xrun) {
	g.chargeRound(op, x.recv)
	putScratch(x)
}

// Span runs fn inside a named phase span when the cluster records
// traces; with tracing off it is exactly fn() plus a wall-clock phase
// timer. Phase spans are what the per-phase load attribution table
// aggregates by; the timer is the wall-clock complement of that
// load-unit attribution (inclusive of nested phases), recorded into the
// coverpack_mpc_phase_seconds histogram.
func (g *Group) Span(name string, fn func()) {
	defer startPhase(name).observe()
	rec := g.recorder()
	if rec == nil {
		fn()
		return
	}
	rec.BeginSpan(name, trace.KindPhase, g.size)
	defer rec.EndSpan()
	fn()
}

// Recording reports whether the group has a trace recorder, so a caller
// can skip formatting a Note nobody would read.
func (g *Group) Recording() bool { return g.recorder() != nil }

// Note records text as one line of the run's decision log: a zero-width
// span of kind trace.KindNote under the current span. Notes reach the
// recorder in execution order, Parallel branches' in branch order for
// every worker count; trace.Notes reads them back. Without a recorder
// it does nothing.
func (g *Group) Note(text string) {
	if rec := g.recorder(); rec != nil {
		rec.BeginSpan(text, trace.KindNote, g.size)
		rec.EndSpan()
	}
}

// DistRelation is a relation partitioned across the servers of a group:
// Frags[i] is server i's fragment.
type DistRelation struct {
	Schema relation.Schema
	Frags  []*relation.Relation

	// part, when non-empty, records that the fragments are the output of
	// a HashPartition on these attributes over a group of len(Frags)
	// servers: every tuple of Frags[i] hashes to i. HashPartition uses it
	// to elide re-partitioning on the same key entirely (the identity
	// path of HashPartition). The mark describes fragment placement,
	// not content, so Local and other per-fragment transforms must not
	// propagate it unless placement is preserved; algorithm layers
	// propagate it explicitly via MarkPartitioned. It is the caller's
	// key slice, not a copy.
	part []int
}

// MarkPartitioned records that d's fragments are hash-partitioned on
// attrs (tuple t lives on server hashtab.Hash(t, pos) mod len(Frags)).
// Callers assert placement they have established — e.g. a per-server
// filter of an already-partitioned relation preserves it. d keeps attrs
// itself, so the caller must not modify it after the call.
func (d *DistRelation) MarkPartitioned(attrs []int) {
	d.part = attrs
}

// PartitionedOn reports whether d is known to be hash-partitioned on
// exactly these attributes (order-sensitive: the hash covers key columns
// in the given order).
func (d *DistRelation) PartitionedOn(attrs []int) bool {
	return len(d.part) > 0 && slices.Equal(d.part, attrs)
}

// NewDist allocates an empty distributed relation for a group of the
// given size.
func NewDist(schema relation.Schema, size int) *DistRelation {
	return &DistRelation{Schema: schema, Frags: relation.NewSlab(schema, size)}
}

// Len returns the total tuple count across fragments.
func (d *DistRelation) Len() int {
	n := 0
	for _, f := range d.Frags {
		n += f.Len()
	}
	return n
}

// Collect concatenates all fragments into one local relation, sized
// once. It is free, not a simulated communication step: tests and
// oracles inspect through it, and the engine calls it where the cost is
// charged by other means — Case II's joint count (the movement to the
// counting servers is charged by the exchanges before it) and the
// conservative allocator's oracle sub-joins (one statistics round,
// charged through ChargeControl). Use Gather for the accounted
// operation. The copy's arena comes from relation.GetArena and nothing
// tracks it: a caller that drops the copy hands its Data back with
// relation.PutArena once nothing reads it (the engine's callers do,
// right after counting), and one that keeps it leaves it to the
// collector.
func (d *DistRelation) Collect() *relation.Relation {
	n := d.Len()
	data := relation.GetArena(n * d.Schema.Len())
	for _, f := range d.Frags {
		data = append(data, f.Data()...)
	}
	return relation.FromData(d.Schema, data, n)
}

// Scatter distributes a local relation round-robin over the group —
// the "data initially distributed evenly" premise of the model. It is
// free: initial placement precedes the computation.
func (g *Group) Scatter(r *relation.Relation) *DistRelation {
	d := &DistRelation{Schema: r.Schema(), Frags: []*relation.Relation{r}}
	x := g.scratch(d)
	d.Frags = exchange(g, x, d, g.size, true, roundRobin(g.size))
	putScratch(x)
	return d
}

// ScatterDedup scatters the distinct rows of r round-robin over the
// group — Scatter(r.Dedup()) without the deduplicated intermediate: the
// dedup hands over the first occurrences in order, so row k of the
// deduplicated order is known, with the count, before anything moves,
// and the exchange kernel routes it to server k mod size and drops the
// repeats. Free and untraced like Scatter.
func (g *Group) ScatterDedup(r *relation.Relation) *DistRelation {
	first := r.FirstRows()
	d := &DistRelation{Schema: r.Schema(), Frags: []*relation.Relation{r}}
	x := g.scratch(d)
	for ci, chunk := range x.chunks {
		x.cs[ci].k, _ = slices.BinarySearch(first, int32(chunk[0].base))
	}
	d.Frags = exchange(g, x, d, g.size, false, dedupRoute{first, g.size})
	putScratch(x)
	return d
}

// dedupRoute sends the k-th first occurrence to server k mod size and
// drops the repeats (c.k: the rank of the chunk's next first occurrence).
type dedupRoute struct {
	first []int32
	size  int
}

func (r dedupRoute) route(c *xchunk, dst []uint32, _ int, _ relation.Tuple, flat int) []uint32 {
	if c.k < len(r.first) && int(r.first[c.k]) == flat {
		dst = append(dst, uint32(c.k%r.size))
		c.k++
	}
	return dst
}

// HashPartition re-partitions d by the given attributes: every tuple
// goes to server hash(key) mod size. One round; cost = tuples received.
//
// When d is already partitioned on attrs for this group the exchange is
// the identity: every tuple of fragment i hashes back to server i, in
// fragment order. The output then shares d's fragments without hashing,
// and the charge is each fragment's size — what hashing would compute.
//
// The output records attrs itself as its partitioning key, so the caller
// must not modify attrs after the call.
func (g *Group) HashPartition(d *DistRelation, attrs []int) *DistRelation {
	out := &DistRelation{Schema: d.Schema, part: attrs}
	var x *xrun
	if len(d.Frags) == g.size && d.PartitionedOn(attrs) {
		g.cluster.identity.Add(1)
		x = getScratch()
		x.recv = sized(x.recv, g.size)
		for i, f := range d.Frags {
			x.recv[i] = f.Len()
		}
		out.Frags = slices.Clone(d.Frags)
	} else {
		g.cluster.hashed.Add(1)
		x = g.scratch(d)
		x.offs = d.Schema.AppendPositions(x.offs[:0], attrs)
		out.Frags = exchange(g, x, d, g.size, true, hashRoute{x.offs, uint64(g.size)})
	}
	g.charge(trace.OpHashPartition, x)
	return out
}

// hashRoute sends a tuple to server hash(key) mod k.
type hashRoute struct {
	pos []int
	k   uint64
}

func (r hashRoute) route(_ *xchunk, dst []uint32, _ int, t relation.Tuple, _ int) []uint32 {
	return append(dst, uint32(hashtab.Hash(t, r.pos)%r.k))
}

// Broadcast sends every tuple of d to every server. One round; each
// server receives Len(d) units. The p copies are one Local step: each
// server's region of the one output arena is filled with d's fragments
// in order.
func (g *Group) Broadcast(d *DistRelation) *DistRelation {
	n := d.Len()
	out := Local(g, d, replicate{schema: d.Schema, frags: d.Frags, rows: n})
	x := getScratch()
	x.recv = sized(x.recv, g.size)
	for i := range x.recv {
		x.recv[i] = n
	}
	g.charge(trace.OpBroadcast, x)
	return out
}

// replicate is Broadcast's step: every server's output is all of frags,
// rows rows in fragment order.
type replicate struct {
	schema relation.Schema
	frags  []*relation.Relation
	rows   int
}

func (s replicate) Schema() relation.Schema { return s.schema }

func (s replicate) Scratch(int, *relation.Relation) int { return 0 }

func (s replicate) Count(int, *relation.Relation, []relation.Value) int { return s.rows }

func (s replicate) Fill(_ int, _ *relation.Relation, _, dst []relation.Value, _ int) {
	for _, f := range s.frags {
		dst = dst[copy(dst, f.Data()):]
	}
}

// Gather collects d onto server 0. One round; server 0 receives
// Len(d) units, its own fragment included (see the package comment).
// Use only for provably small data (statistics).
func (g *Group) Gather(d *DistRelation) *relation.Relation {
	x := getScratch()
	x.recv = zeroed(x.recv, g.size)
	x.recv[0] = d.Len()
	out := g.collect(x, d)
	g.charge(trace.OpGather, x)
	return out
}

// Route sends each tuple to the destinations chosen by route (0-based
// server indices within the group); tuples may be replicated. One
// round. route must be pure — deterministic, safe for concurrent
// calls, no shared mutable state — so the parallel engine can invoke
// it from worker goroutines.
func (g *Group) Route(d *DistRelation, route func(src int, t relation.Tuple) []int) *DistRelation {
	return g.RouteBuf(d, func(src int, t relation.Tuple, _ []int) []int {
		return route(src, t)
	})
}

// RouteBuf is Route with an engine-owned destination buffer: route
// receives a scratch slice (possibly nil or stale) and returns the
// tuple's destinations, reusing the scratch's backing array when it is
// big enough. The engine hands each returned slice back on the next
// call from the same goroutine, so routing functions that fan a tuple
// out to many servers avoid a per-tuple allocation. The purity
// contract of Route still applies; the buffer is never shared between
// goroutines.
func (g *Group) RouteBuf(d *DistRelation, route func(src int, t relation.Tuple, buf []int) []int) *DistRelation {
	x := g.scratch(d)
	out := &DistRelation{Schema: d.Schema, Frags: exchange(g, x, d, g.size, false, bufRoute{route, g.size})}
	g.charge(trace.OpRoute, x)
	return out
}

// bufRoute routes by a RouteBuf function, in the chunk's buffer.
type bufRoute struct {
	fn func(src int, t relation.Tuple, buf []int) []int
	k  int
}

func (r bufRoute) route(c *xchunk, dst []uint32, src int, t relation.Tuple, _ int) []uint32 {
	c.buf = r.fn(src, t, c.buf)
	for _, dest := range c.buf {
		if dest < 0 || dest >= r.k {
			panic(fmt.Sprintf("mpc: route destination %d outside group of size %d", dest, r.k))
		}
		dst = append(dst, uint32(dest))
	}
	return dst
}

// Local runs a per-server step with no communication: s's Count half
// over every server of g, one exactly sized arena for all the outputs,
// then its Fill half into each server's capacity-capped region of it
// (relation.Fragments). The output is under s.Schema(). Under a parallel
// cluster the servers of each half may run concurrently; both halves
// must be pure with respect to shared state (reading shared read-only
// data is fine).
//
// Local is a function, not a method, because it is generic in the step:
// a step passed as a type argument stays a value on the caller's stack,
// where an interface argument would be boxed on every call.
func Local[S relation.Step](g *Group, d *DistRelation, s S) *DistRelation {
	if len(d.Frags) != g.size {
		panic("mpc: Local on relation of mismatched group size")
	}
	var f relation.Forker
	if g.parallel(d.Len()) {
		f = g
	}
	return &DistRelation{Schema: s.Schema(), Frags: relation.Fragments(f, d.Frags, s)}
}

// Branch describes one member of a parallel block: a subgroup size and
// the computation to run on it.
type Branch struct {
	Servers int
	Run     func(sub *Group)
}

// Parallel executes the branches on disjoint virtual subgroups that run
// concurrently: the block costs the max of the branches' rounds, the max
// of their loads, the sum of their communication volumes, and the sum of
// their peak server usages. Under a parallel cluster the branch Run
// functions execute on concurrent goroutines; each branch's trace
// events are buffered and replayed in branch order, so the recorded
// stream matches the sequential engine exactly. Branch
// closures must confine shared writes to caller-owned per-branch slots.
func (g *Group) Parallel(branches []Branch) {
	for _, b := range branches {
		if b.Servers <= 0 {
			panic(fmt.Sprintf("mpc: parallel branch with %d servers", b.Servers))
		}
	}
	if g.cluster.workers > 1 && len(branches) > 1 {
		g.parallelBranches(branches)
		return
	}
	subs := make([]*Group, len(branches))
	rec := g.recorder()
	for bi, b := range branches {
		subs[bi] = g.child(b.Servers)
		if rec != nil {
			rec.BeginSpan("branch "+strconv.Itoa(bi), trace.KindParallel, b.Servers)
		}
		b.Run(subs[bi])
		if rec != nil {
			rec.EndSpan()
		}
	}
	g.foldBranches(subs)
}

// parallelBranches runs a Parallel block's branches on concurrent
// goroutines. Each branch gets a sub-group whose recorder is a
// per-branch buffer; after all branches complete, the buffers are
// replayed into the parent recorder in branch order and the stats are
// folded by the same foldBranches as the inline loop's.
func (g *Group) parallelBranches(branches []Branch) {
	rec := g.recorder()
	n := len(branches)
	subs := make([]*Group, n)
	bufs := make([]*trace.Buffer, n)
	for i, b := range branches {
		subs[i] = &Group{cluster: g.cluster, size: b.Servers}
		if rec != nil {
			bufs[i] = trace.NewBuffer()
			subs[i].rec = bufs[i]
		}
	}
	g.cluster.fork(n, func(i int) { branches[i].Run(subs[i]) })
	if rec != nil {
		for i, b := range branches {
			rec.BeginSpan("branch "+strconv.Itoa(i), trace.KindParallel, b.Servers)
			bufs[i].ReplayInto(rec)
			rec.EndSpan()
		}
	}
	g.foldBranches(subs)
}

// foldBranches charges a completed parallel block to this group: the
// max of the branches' rounds and loads, the sum of their volumes and
// of their peak server usages.
func (g *Group) foldBranches(subs []*Group) {
	maxRounds, sumUsed := 0, 0
	for _, sub := range subs {
		s := sub.Stats()
		maxRounds = max(maxRounds, s.Rounds)
		g.stats.MaxLoad = max(g.stats.MaxLoad, s.MaxLoad)
		g.stats.TotalUnits += s.TotalUnits
		sumUsed += s.ServersUsed
	}
	g.stats.Rounds += maxRounds
	g.used = max(g.used, sumUsed)
}

// branchOffsets validates branch sizes, leaves each branch's first slot
// of the flattened recv vector in x.offs and returns their total.
func (x *xrun) branchOffsets(sizes []int) (total int) {
	x.offs = sized(x.offs, len(sizes))
	for i, k := range sizes {
		if k <= 0 {
			panic(fmt.Sprintf("mpc: branch %d with %d servers", i, k))
		}
		x.offs[i] = total
		total += k
	}
	return total
}

// branchSlab cuts the kernel's flat fragment vector into one
// DistRelation per branch, all in one slab.
func branchSlab(schema relation.Schema, frags []*relation.Relation, sizes []int) []*DistRelation {
	slab := make([]DistRelation, len(sizes))
	out := make([]*DistRelation, len(sizes))
	lo := 0
	for b, k := range sizes {
		slab[b] = DistRelation{Schema: schema, Frags: frags[lo : lo+k : lo+k]}
		out[b] = &slab[b]
		lo += k
	}
	return out
}

// checkBranch panics unless b names one of nb branches.
func checkBranch(b, nb int) {
	if b < 0 || b >= nb {
		panic(fmt.Sprintf("mpc: DistributeSpread branch %d out of range", b))
	}
}

// DistributeSpread reshapes a distributed relation into per-branch
// relations in a single exchange, charged to g with per-destination
// loads; sizes gives each branch's server count. pick returns, per
// tuple, the one branch that receives it, or −1 to drop it. With
// broadcast the tuple is replicated to every server of its branch;
// otherwise it goes to the next server of the branch's round-robin
// rotation, which advances in flattened (fragment-major) input order,
// whatever the worker count — the home for the "spread a branch's share
// evenly over its servers" pattern that would otherwise need a stateful
// (and on several workers, racy and order-dependent) route closure. It
// serves data-dependent picks; a relation copied round-robin to every
// branch goes through Spread, which delivers that without routing.
//
// pick must be pure: deterministic, safe for concurrent calls, and
// indifferent to how many times it is invoked per tuple (a round-robin
// exchange cut into several chunks calls it twice — once to count
// rotations, once to assign).
func (g *Group) DistributeSpread(d *DistRelation, sizes []int, broadcast bool, pick func(relation.Tuple) int) []*DistRelation {
	x := g.scratch(d)
	total := x.branchOffsets(sizes)
	if !broadcast {
		x.rotations(g, d, len(sizes), pick)
	}
	frags := exchange(g, x, d, total, false, spreadRoute{pick, sizes, x.offs, broadcast})
	g.charge(trace.OpDistribute, x)
	return branchSlab(d.Schema, frags, sizes)
}

// rotations gives every chunk of x its branches' round-robin rotations
// at its start (c.rr): the sends to each of the nb branches ahead of the
// chunk in flattened order. One chunk starts at zero; several need a
// counting pass over all but the last, each leaving its count in the
// slot of the chunk after it.
func (x *xrun) rotations(g *Group, d *DistRelation, nb int, pick func(relation.Tuple) int) {
	chunks := x.chunks
	rot := zeroed(x.rot, len(chunks)*nb)
	x.rot = rot
	if len(chunks) > 1 {
		g.cluster.fork(len(chunks)-1, func(ci int) {
			cnt := rot[(ci+1)*nb : (ci+2)*nb]
			for _, r := range chunks[ci] {
				f := d.Frags[r.frag]
				for i := r.lo; i < r.hi; i++ {
					if b := pick(f.Row(i)); b != -1 {
						checkBranch(b, nb)
						cnt[b]++
					}
				}
			}
		})
		for i := 2 * nb; i < len(rot); i++ {
			rot[i] += rot[i-nb]
		}
	}
	for ci := range chunks {
		x.cs[ci].rr = rot[ci*nb : (ci+1)*nb]
	}
}

// spreadRoute sends a tuple to every server of its branch under
// broadcast, and otherwise to the next one in the chunk's rotation
// (c.rr) of the branch.
type spreadRoute struct {
	pick        func(relation.Tuple) int
	sizes, offs []int
	broadcast   bool
}

func (r spreadRoute) route(c *xchunk, dst []uint32, _ int, t relation.Tuple, _ int) []uint32 {
	b := r.pick(t)
	if b == -1 {
		return dst
	}
	checkBranch(b, len(r.sizes))
	first, k := r.offs[b], r.sizes[b]
	if r.broadcast {
		for srv := range k {
			dst = append(dst, uint32(first+srv))
		}
		return dst
	}
	dst = append(dst, uint32(first+c.rr[b]%k))
	c.rr[b]++
	return dst
}

// Spread copies d to every branch in a single exchange, charged to g
// with per-destination loads like DistributeSpread: flattened tuple i
// goes to server i mod sizes[b] of every branch b — what a round-robin
// DistributeSpread into branch b alone would deliver there, for every
// branch at once. Nothing is routed: branch b's rotation at tuple i is
// i, so server s of a k-server branch receives n/k tuples, one more
// when s < n mod k, and tuple i is row i/k of server i mod k — the fill
// computes every row's place from its index (spreadFill).
func (g *Group) Spread(d *DistRelation, sizes []int) []*DistRelation {
	x := g.scratch(d)
	total, n := x.branchOffsets(sizes), d.Len()
	x.recv = zeroed(x.recv, max(total, g.size))
	x.first = sized(x.first, total)
	row := 0
	for b, k := range sizes {
		for s := range k {
			dest := x.offs[b] + s
			x.recv[dest] = n / k
			if s < n%k {
				x.recv[dest]++
			}
			x.first[dest], row = row, row+x.recv[dest]
		}
	}
	frags, blob := relation.NewSlabCounts(d.Schema, x.recv[:total])
	g.cluster.trackArena(blob)
	if nc := len(x.chunks); nc == 1 {
		spreadFill(x, d, blob, sizes, 0)
	} else if nc > 1 {
		g.cluster.fork(nc, func(ci int) { spreadFill(x, d, blob, sizes, ci) })
	}
	g.charge(trace.OpDistribute, x)
	return branchSlab(d.Schema, frags, sizes)
}

// DeclareServers records that the computation logically occupies at
// least n concurrent virtual servers, even if the simulator ran the
// replicated work only once. The Case II Cartesian arrangement of the
// acyclic algorithm uses a p_1 × ... × p_k hypercube whose rows perform
// identical work; the simulator executes one row per component and
// declares the full grid here.
func (g *Group) DeclareServers(n int) {
	if n > g.used {
		g.used = n
	}
}

// ChargeControl records a round of control communication (counts,
// offsets, group descriptors) where server i receives units[i] integers.
// The paper's upper bounds count such integers as one unit each.
func (g *Group) ChargeControl(units []int) {
	g.chargeRound(trace.OpChargeControl, units)
}
