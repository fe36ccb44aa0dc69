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
// Data lives in DistRelations: one fragment per server of the owning
// group, all of them views of one arena (relation.Frags). Tuples move
// between servers only through the group's exchange operations
// (HashPartition, RouteFan, DistributeSpread, ...), which share one
// kernel (exchange.go), store at most one destination id a tuple and
// charge every round. Decisions
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
// Route/RouteFan/DistributeSpread callbacks and Local steps must be
// pure (deterministic, no shared mutable state) under a parallel
// cluster; Route calls its function twice a tuple.
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
	chunker  func(n int) []int

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

// WithRecorder attaches a trace recorder to the cluster. Passing nil
// leaves tracing off (the zero-cost default).
func WithRecorder(r trace.Recorder) Option {
	return func(c *Cluster) { c.rec = r }
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
// fragment i (Frag(i)) is server i's. The fragments are views of one
// arena and an offset vector (relation.Frags), written once. Collect is
// all of them as one view, free: the engine reads it only where the
// cost is charged by other means (Case II's joint count, the
// conservative allocator's sub-joins); Gather is the accounted one.
type DistRelation struct {
	relation.Frags

	// part, when non-empty, records that the fragments are the output of
	// a HashPartition on these attributes over a group of Servers()
	// servers: every tuple of fragment i hashes to i. HashPartition uses
	// it to elide re-partitioning on the same key entirely (the identity
	// path of HashPartition). The mark describes fragment placement,
	// not content, so Local and other per-fragment transforms must not
	// propagate it unless placement is preserved; algorithm layers
	// propagate it explicitly via MarkPartitioned. It is the caller's
	// key slice, not a copy.
	part []int
}

// MarkPartitioned records that d's fragments are hash-partitioned on
// attrs (tuple t lives on server hashtab.Hash(t, pos) mod Servers()).
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
	return &DistRelation{Frags: relation.NewFrags(schema, nil, make([]int32, size+1))}
}

// Scatter distributes a local relation round-robin over the group —
// the "data initially distributed evenly" premise of the model. It is
// free: initial placement precedes the computation.
func (g *Group) Scatter(r *relation.Relation) *DistRelation {
	x := g.scratch(r.Len())
	d := &DistRelation{Frags: exchange(g, x, x.whole(r), g.size, stored[roundRobin]{r: roundRobin(g.size)})}
	putScratch(x)
	return d
}

// whole returns r as one fragment, its offsets in x.
func (x *xrun) whole(r *relation.Relation) relation.Frags {
	x.one = append(x.one[:0], 0, int32(r.Len()))
	return relation.NewFrags(r.Schema(), r.Data(), x.one)
}

// HashPartition re-partitions d by the given attributes: every tuple
// goes to server hash(key) mod size. One round; cost = tuples received.
//
// When d is already partitioned on attrs for this group the exchange is
// the identity: every tuple of fragment i hashes back to server i, in
// fragment order. The output then shares d's arena and offsets without
// hashing, and the charge is each fragment's size — what hashing would
// compute.
//
// The output records attrs itself as its partitioning key, so the caller
// must not modify attrs after the call.
func (g *Group) HashPartition(d *DistRelation, attrs []int) *DistRelation {
	out := &DistRelation{part: attrs}
	var x *xrun
	if d.Servers() == g.size && d.PartitionedOn(attrs) {
		g.cluster.identity.Add(1)
		x = getScratch()
		x.recv = sized(x.recv, g.size)
		for i := range x.recv {
			x.recv[i] = d.FragLen(i)
		}
		out.Frags = d.Frags
	} else {
		g.cluster.hashed.Add(1)
		x = g.scratch(d.Len())
		x.offs = d.Schema.AppendPositions(x.offs[:0], attrs)
		out.Frags = exchange(g, x, d.Frags, g.size, stored[hashRoute]{r: hashRoute{x.offs, uint64(g.size)}})
	}
	g.charge(trace.OpHashPartition, x)
	return out
}

// hashRoute sends a tuple to server hash(key) mod k.
type hashRoute struct {
	pos []int
	k   uint64
}

func (r hashRoute) route(_ *xchunk, t relation.Tuple, _ int) uint32 {
	return uint32(hashtab.Hash(t, r.pos) % r.k)
}

// Broadcast sends every tuple of d to every server. One round; each
// server receives Len(d) units. The p copies are one Local step: each
// server's region of the one output arena is filled with d's rows in
// server order.
func (g *Group) Broadcast(d *DistRelation) *DistRelation {
	n := d.Len()
	out := Local(g, d, replicate{d.Collect()})
	x := getScratch()
	x.recv = sized(x.recv, g.size)
	for i := range x.recv {
		x.recv[i] = n
	}
	g.charge(trace.OpBroadcast, x)
	return out
}

// replicate is Broadcast's step: every server's output is all of rows.
type replicate struct{ rows relation.View }

func (s replicate) Schema() relation.Schema { return s.rows.Schema() }

func (s replicate) Scratch(int, relation.View) int { return 0 }

func (s replicate) Count(int, relation.View, []relation.Value) int { return s.rows.Len() }

func (s replicate) Fill(_ int, _ relation.View, _, dst []relation.Value, _ int) {
	copy(dst, s.rows.Data())
}

// Gather collects d onto server 0. One round; server 0 receives
// Len(d) units, its own fragment included (see the package comment).
// Use only for provably small data (statistics). The output's rows are
// d's arena, not a copy: a Relation's mutators never write its arena in
// place (Add reallocates the capped arena, sorts gather into a new one),
// so the caller may sort or grow it and d stays as it is.
func (g *Group) Gather(d *DistRelation) *relation.Relation {
	x := getScratch()
	x.recv = zeroed(x.recv, g.size)
	x.recv[0] = d.Len()
	g.charge(trace.OpGather, x)
	all := d.Collect()
	return relation.FromData(d.Schema, all.Data(), all.Len())
}

// Route sends each tuple to the destinations chosen by route (0-based
// server indices within the group); tuples may be replicated. One
// round. route must be pure — deterministic, safe for concurrent
// calls, no shared mutable state — so the parallel engine can invoke
// it from worker goroutines; it is called twice a tuple, once to count
// the destinations and once to fill them, and its slice is read before
// the next call. Route stores nothing a tuple: it is the harness's
// free-form exchange, and no algorithm calls it.
func (g *Group) Route(d *DistRelation, route func(src int, t relation.Tuple) []int) *DistRelation {
	x := g.scratch(d.Len())
	out := &DistRelation{Frags: exchange(g, x, d.Frags, g.size, calls{route, g.size})}
	g.charge(trace.OpRoute, x)
	return out
}

// RouteFan sends each tuple to the servers route(src, t)+o, one for
// every offset o of fan, or to route(src, t) alone when fan is nil: a
// fixed shape of servers placed by one base server a tuple — HyperCube's
// sub-grid of the cells consistent with a tuple's pinned coordinates.
// One round. Only the base is stored, one id a tuple, whatever the fan.
// route must be pure, as Route's; the caller must not modify fan
// during the call.
func (g *Group) RouteFan(d *DistRelation, route func(src int, t relation.Tuple) int, fan []int) *DistRelation {
	r := fanRoute{fn: route, in: d.Frags, hi: g.size}
	if len(fan) > 0 {
		r.lo, r.hi = -slices.Min(fan), g.size-slices.Max(fan)
	}
	x := g.scratch(d.Len())
	out := &DistRelation{Frags: exchange(g, x, d.Frags, g.size, stored[fanRoute]{r, fan})}
	g.charge(trace.OpRoute, x)
	return out
}

// fanRoute routes by a RouteFan function, whose bases must lie in
// [lo, hi) for every offset of the fan to land in the group. The source
// server of a row is found from in's offsets: the chunk's cursor c.src
// walks up from server 0 each pass as the rows pass the end of one.
type fanRoute struct {
	fn     func(src int, t relation.Tuple) int
	in     relation.Frags
	lo, hi int
}

func (r fanRoute) route(c *xchunk, t relation.Tuple, flat int) uint32 {
	for flat >= r.in.Start(c.src+1) {
		c.src++
	}
	b := r.fn(c.src, t)
	if b < r.lo || b >= r.hi {
		panic(fmt.Sprintf("mpc: route base %d outside [%d, %d) in a group of size %d", b, r.lo, r.hi, r.in.Servers()))
	}
	return uint32(b)
}

// Local runs a per-server step with no communication: s's Count half
// over every server of g, one exactly sized arena for all the outputs,
// then its Fill half into each server's region of it
// (relation.Fragments). The output is under s.Schema(). Under a parallel
// cluster the servers of each half may run concurrently; both halves
// must be pure with respect to shared state (reading shared read-only
// data is fine).
//
// Local is a function, not a method, because it is generic in the step:
// a step passed as a type argument stays a value on the caller's stack,
// where an interface argument would be boxed on every call.
func Local[S relation.Step](g *Group, d *DistRelation, s S) *DistRelation {
	if d.Servers() != g.size {
		panic("mpc: Local on relation of mismatched group size")
	}
	var f relation.Forker
	if g.parallel(d.Len()) {
		f = g
	}
	return &DistRelation{Frags: relation.Fragments(f, d.Frags, s)}
}

// Branch describes one member of a parallel block: a subgroup size and
// the computation to run on it, which returns the branch's output count.
type Branch struct {
	Servers int
	Run     func(sub *Group) (int64, error)
}

// Parallel executes the branches on disjoint virtual subgroups that run
// concurrently: the block costs the max of the branches' rounds, the max
// of their loads, the sum of their communication volumes, and the sum of
// their peak server usages. Under a parallel cluster the branch Run
// functions execute on concurrent goroutines; each branch's trace
// events are buffered and replayed in branch order, so the recorded
// stream matches the sequential engine exactly. Parallel returns the
// branches' counts in branch order and the error of the lowest-index
// branch that failed; every branch runs either way. A branch hands its
// results back through its return values only.
func (g *Group) Parallel(branches []Branch) ([]int64, error) {
	for _, b := range branches {
		if b.Servers <= 0 {
			panic(fmt.Sprintf("mpc: parallel branch with %d servers", b.Servers))
		}
	}
	if g.cluster.workers > 1 && len(branches) > 1 {
		return g.parallelBranches(branches)
	}
	counts := make([]int64, len(branches))
	subs := make([]*Group, len(branches))
	rec := g.recorder()
	var first error
	for bi, b := range branches {
		subs[bi] = g.child(b.Servers)
		if rec != nil {
			rec.BeginSpan("branch "+strconv.Itoa(bi), trace.KindParallel, b.Servers)
		}
		n, err := b.Run(subs[bi])
		counts[bi] = n
		if first == nil {
			first = err
		}
		if rec != nil {
			rec.EndSpan()
		}
	}
	g.foldBranches(subs)
	return counts, first
}

// parallelBranches runs a Parallel block's branches on concurrent
// goroutines. Each branch gets a sub-group whose recorder is a
// per-branch buffer; after all branches complete, the buffers are
// replayed into the parent recorder in branch order and the stats are
// folded by the same foldBranches as the inline loop's.
func (g *Group) parallelBranches(branches []Branch) ([]int64, error) {
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
	counts := make([]int64, n)
	errs := make([]error, n)
	g.cluster.fork(n, func(i int) { counts[i], errs[i] = branches[i].Run(subs[i]) })
	if rec != nil {
		for i, b := range branches {
			rec.BeginSpan("branch "+strconv.Itoa(i), trace.KindParallel, b.Servers)
			bufs[i].ReplayInto(rec)
			rec.EndSpan()
		}
	}
	g.foldBranches(subs)
	for _, err := range errs {
		if err != nil {
			return counts, err
		}
	}
	return counts, nil
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

// deliver lays out the total destinations of a spread whose branch b
// receives rows[b] tuples: under broadcast every server of the branch
// holds all of them, otherwise server s of a k-server branch holds
// rows[b]/k, one more when s < rows[b] mod k. It leaves the counts in
// x.recv, charged over max(total, group size) servers, and each
// destination's first row in x.first, and returns one tracked pooled
// blob and the branches' relations, runs of the destinations' fragments
// over it.
func (x *xrun) deliver(g *Group, schema relation.Schema, sizes []int, total int, broadcast bool) ([]relation.Value, []DistRelation) {
	x.recv = zeroed(x.recv, max(total, g.size))
	x.first = sized(x.first, total)
	row := 0
	for b, k := range sizes {
		for s := range k {
			dest, n := x.offs[b]+s, x.rows[b]
			if !broadcast {
				n = x.rows[b] / k
				if s < x.rows[b]%k {
					n++
				}
			}
			x.recv[dest] = n
			x.first[dest], row = row, row+n
		}
	}
	blob := relation.GetArena(row * schema.Len())[:row*schema.Len()]
	g.cluster.trackArena(blob)
	out := relation.NewFragsCounts(schema, blob, x.recv[:total])
	ds := make([]DistRelation, len(sizes))
	for b, k := range sizes {
		ds[b].Frags = out.Slice(x.offs[b], x.offs[b]+k)
	}
	return blob, ds
}

// DistributeSpread reshapes a distributed relation into per-branch
// relations in a single exchange, charged to g with per-destination
// loads; sizes gives each branch's server count. pick returns, per
// tuple, the one branch that receives it, or −1 to drop it. With
// broadcast the tuple is replicated to every server of its branch;
// otherwise it goes to the next server of the branch's round-robin
// rotation, which advances in input order (server after server),
// whatever the worker count — the home for the "spread a branch's share
// evenly over its servers" pattern that would otherwise need a stateful
// (and on several workers, racy and order-dependent) route closure. It
// serves data-dependent picks; a relation copied round-robin to every
// branch goes through Spread, which delivers that without routing.
//
// Pass 1 stores one branch id a tuple and counts each branch's picks
// per chunk; the fill places every copy from the tuple's rank in its
// branch alone (pickFill). The branches share one arena and offsets.
//
// pick must be pure: deterministic and safe for concurrent calls.
func (g *Group) DistributeSpread(d *DistRelation, sizes []int, broadcast bool, pick func(relation.Tuple) int) []DistRelation {
	nb := len(sizes)
	x := g.scratch(d.Len())
	n, total := x.chunks(), x.branchOffsets(sizes)
	ids := stored[pickRoute]{r: pickRoute{pick, nb}}
	if n == 1 {
		ids.count(x, d.Frags, 0, nb)
	} else if n > 1 {
		g.cluster.fork(n, func(ci int) { ids.count(x, d.Frags, ci, nb) })
	}
	x.rows = zeroed(x.rows, nb)
	for _, ch := range x.cs[:n] {
		for b, v := range ch.cur {
			ch.cur[b], x.rows[b] = x.rows[b], x.rows[b]+v
		}
	}
	blob, ds := x.deliver(g, d.Schema, sizes, total, broadcast)
	if n == 1 {
		pickFill(x, d.Frags, blob, sizes, 0, broadcast)
	} else if n > 1 {
		g.cluster.fork(n, func(ci int) { pickFill(x, d.Frags, blob, sizes, ci, broadcast) })
	}
	g.charge(trace.OpDistribute, x)
	return ds
}

// pickRoute stores a tuple's branch id, or noID when pick drops it.
type pickRoute struct {
	pick func(relation.Tuple) int
	nb   int
}

func (r pickRoute) route(_ *xchunk, t relation.Tuple, _ int) uint32 {
	switch b := r.pick(t); {
	case b == -1:
		return noID
	case b < 0 || b >= r.nb:
		panic(fmt.Sprintf("mpc: DistributeSpread branch %d out of range", b))
	default:
		return uint32(b)
	}
}

// Spread copies d to every branch in a single exchange, charged to g
// with per-destination loads like DistributeSpread: input row i goes to
// server i mod sizes[b] of every branch b — what a round-robin
// DistributeSpread into branch b alone would deliver there, for every
// branch at once. Nothing is routed: branch b's rotation at row i is i,
// so server s of a k-server branch receives n/k tuples, one more when
// s < n mod k, and row i is row i/k of server i mod k — the fill
// computes every row's place from its index (spreadFill).
func (g *Group) Spread(d *DistRelation, sizes []int) []DistRelation {
	x := g.scratch(d.Len())
	total := x.branchOffsets(sizes)
	x.rows = sized(x.rows, len(sizes))
	for b := range x.rows {
		x.rows[b] = d.Len()
	}
	blob, ds := x.deliver(g, d.Schema, sizes, total, false)
	if n := x.chunks(); n == 1 {
		spreadFill(x, d.Frags, blob, sizes, 0)
	} else if n > 1 {
		g.cluster.fork(n, func(ci int) { spreadFill(x, d.Frags, blob, sizes, ci) })
	}
	g.charge(trace.OpDistribute, x)
	return ds
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
