package mpc

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// Exchange-plan caching.
//
// The paper's algorithms re-partition the same relations on the same
// keys across rounds (semi-join sweeps, Degrees-then-route, repeated
// statistics passes). A plan captures everything HashPartition computes
// from the data — the exchange kernel's destination vector (one id per
// input tuple, in flattened order), the charged recv vector, and the
// output fragments themselves — keyed on (group size, key columns,
// input fragment content versions). Re-partitioning an unchanged
// relation on the same key then skips the per-tuple hashing entirely:
//
//   - When the memoized output fragments are still unmutated (their
//     version stamps match), the hit returns them directly — O(p).
//   - Otherwise the output is rebuilt by running the kernel with the
//     stored vector as its routing function — count and copy, no
//     re-hashing.
//
// Caching elides recomputation, never accounting: a hit charges the
// stored recv vector, which is byte-identical to what the exchange
// would recompute (content versions pin the inputs, and the
// self-send convention is cluster-constant). The difftest oracle runs
// cache-on vs cache-off to enforce this.
//
// Concurrency: HashPartition may run from concurrent Parallel branches
// of one cluster, so the entry map is mutex-guarded and counters are
// atomics. Plans' dst/recv fields are immutable after insertion; only
// the memoized output slot is swapped (under the lock) when a replay
// refreshes it.

// maxPlanTuples bounds the total destination ids retained per cluster
// (4 bytes each — the bound is ~16 MiB of vectors). When an
// insert would exceed it, the whole cache is cleared: deterministic,
// simple, and a full sweep of fresh exchanges just rebuilds the hot
// entries.
const maxPlanTuples = 1 << 22

// exchangePlan is one cached HashPartition.
type exchangePlan struct {
	// dst[i] is the destination of the i-th tuple of the flattened
	// (fragment-major) input.
	dst []uint32
	// recv is the charged per-destination unit vector.
	recv []int
	// out / outVers memoize the output fragments and their version
	// stamps at record time; a version mismatch falls back to replaying
	// dst.
	out     []*relation.Relation
	outVers []uint64
}

// planCache is the per-cluster store.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*exchangePlan
	tuples  int

	hits          atomic.Uint64
	misses        atomic.Uint64
	partitionHits atomic.Uint64
	invalidated   atomic.Uint64
	evictions     atomic.Uint64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*exchangePlan)}
}

// stats snapshots the counters.
func (pc *planCache) snapshot() trace.CacheStats {
	return trace.CacheStats{
		Hits:               pc.hits.Load(),
		Misses:             pc.misses.Load(),
		PartitionHits:      pc.partitionHits.Load(),
		InvalidatedReplays: pc.invalidated.Load(),
		Evictions:          pc.evictions.Load(),
	}
}

// planKey builds the cache key: group size, key positions, and the
// content-version stamp of every input fragment (stamps are globally
// unique per content state, so equal keys imply equal inputs).
func planKey(size int, pos []int, frags []*relation.Relation) string {
	buf := make([]byte, 0, 8*(2+len(pos)+len(frags)))
	var tmp [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(size))
	put(uint64(len(pos)))
	for _, p := range pos {
		put(uint64(p))
	}
	for _, f := range frags {
		put(f.Version())
	}
	return string(buf)
}

// lookup returns the cached plan for key, counting the outcome.
func (pc *planCache) lookup(key string) *exchangePlan {
	pc.mu.Lock()
	p := pc.entries[key]
	pc.mu.Unlock()
	if p != nil {
		pc.hits.Add(1)
		mPlanHits.Inc()
	} else {
		pc.misses.Add(1)
		mPlanMisses.Inc()
	}
	return p
}

// store inserts a freshly recorded plan, clearing the cache first when
// the retained-tuple bound would be exceeded.
func (pc *planCache) store(key string, p *exchangePlan) {
	n := len(p.dst)
	pc.mu.Lock()
	if pc.tuples+n > maxPlanTuples && len(pc.entries) > 0 {
		pc.entries = make(map[string]*exchangePlan)
		pc.tuples = 0
		pc.evictions.Add(1)
		mPlanEvictions.Inc()
	}
	if n <= maxPlanTuples {
		pc.entries[key] = p
		pc.tuples += n
	}
	pc.mu.Unlock()
}

// versionsOf stamps and collects the fragments' versions.
func versionsOf(frags []*relation.Relation) []uint64 {
	vers := make([]uint64, len(frags))
	for i, f := range frags {
		vers[i] = f.Version()
	}
	return vers
}

// replayPlan materializes a cached plan's output: the memoized
// fragments when still valid, otherwise the kernel's count and scatter
// passes over the stored destinations (no re-hashing). The caller
// charges plan.recv.
func (g *Group) replayPlan(d *DistRelation, plan *exchangePlan, attrs []int) *DistRelation {
	pc := g.cluster.plans
	var frags []*relation.Relation
	pc.mu.Lock()
	memoOK := plan.out != nil
	if memoOK {
		for i, f := range plan.out {
			if f.Version() != plan.outVers[i] {
				memoOK = false
				break
			}
		}
	}
	if memoOK {
		frags = slices.Clone(plan.out)
		pc.mu.Unlock()
	} else {
		pc.mu.Unlock()
		pc.invalidated.Add(1)
		mPlanInvalidated.Inc()
		frags, _, _ = g.exchange(d, g.chunksOf(d), g.size, true, func(int) routeFn {
			return func(dst []uint32, _ int, _ *relation.Relation, _ relation.Tuple, flat int) []uint32 {
				return append(dst, plan.dst[flat])
			}
		})
		vers := versionsOf(frags)
		pc.mu.Lock()
		plan.out = slices.Clone(frags)
		plan.outVers = vers
		pc.mu.Unlock()
	}
	out := &DistRelation{Schema: d.Schema, Frags: frags}
	out.part = append([]int(nil), attrs...)
	return out
}

// repartitionIdentity is the partition-state fast path: d is already
// hash-partitioned by attrs for this group, so the exchange is the
// identity — every tuple of fragment i hashes back to server i, in
// fragment order. The output shares d's fragments; the charge is each
// fragment's size under logical accounting and zero under physical
// accounting (every tuple is a self-send), exactly what the full loop
// computes.
func (g *Group) repartitionIdentity(d *DistRelation, attrs []int) *DistRelation {
	g.cluster.plans.partitionHits.Add(1)
	mPlanPartitionHits.Inc()
	recv := make([]int, g.size)
	if g.cluster.chargeSelfSends {
		for i, f := range d.Frags {
			recv[i] = f.Len()
		}
	}
	out := &DistRelation{Schema: d.Schema, Frags: append([]*relation.Relation(nil), d.Frags...)}
	out.part = append([]int(nil), attrs...)
	g.chargeRound(trace.OpHashPartition, recv)
	return out
}

// PlanCacheStats snapshots the cluster's exchange-plan cache counters
// (all zero when the cache is disabled).
func (c *Cluster) PlanCacheStats() trace.CacheStats {
	if c.plans == nil {
		return trace.CacheStats{}
	}
	return c.plans.snapshot()
}
