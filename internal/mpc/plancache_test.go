package mpc

import (
	"testing"

	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// sameFrags reports byte-identity of two distributed relations.
func sameFrags(a, b *DistRelation) bool {
	if len(a.Frags) != len(b.Frags) {
		return false
	}
	for i := range a.Frags {
		af, bf := a.Frags[i], b.Frags[i]
		if af.Len() != bf.Len() {
			return false
		}
		for j := 0; j < af.Len(); j++ {
			at, bt := af.Row(j), bf.Row(j)
			for k := range at {
				if at[k] != bt[k] {
					return false
				}
			}
		}
	}
	return true
}

func TestPlanCacheHitOnRepeat(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	in := big(relation.NewSchema(0, 1), 500)

	d := g.Scatter(in)
	first := g.HashPartition(d, []int{0})
	if s := c.PlanCacheStats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first exchange: %v", s)
	}

	// Re-partitioning the same (unmutated) input on the same key hits:
	// the cache key is the fragments' content versions, which only
	// mutation changes. The input itself carries no partition mark, so
	// this is the plan-cache path, not the identity fast path.
	second := g.HashPartition(d, []int{0})
	if s := c.PlanCacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after repeat exchange: %v", s)
	}
	if !sameFrags(first, second) {
		t.Fatal("cached repartition differs from computed one")
	}

	// Reference: a cache-off cluster charges exactly the same stats.
	ref := NewCluster(4, WithPlanCache(false))
	rg := ref.Root()
	rd := rg.Scatter(in)
	rg.HashPartition(rd, []int{0})
	rg.HashPartition(rd, []int{0})
	if ref.Stats() != c.Stats() {
		t.Fatalf("cache-on stats %v, cache-off %v", c.Stats(), ref.Stats())
	}
	if s := ref.PlanCacheStats(); s != (trace.CacheStats{}) {
		t.Fatalf("disabled cache reports %v", s)
	}
}

func TestPlanCacheDifferentKeyMisses(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(big(relation.NewSchema(0, 1), 300))
	g.HashPartition(d, []int{0})
	g.HashPartition(d, []int{1})
	if s := c.PlanCacheStats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("different keys must both miss: %v", s)
	}
}

func TestPartitionIdentityFastPath(t *testing.T) {
	for _, charge := range []bool{true, false} {
		c := NewCluster(4, WithChargeSelfSends(charge))
		g := c.Root()
		d := g.Scatter(big(relation.NewSchema(0, 1), 500))
		p1 := g.HashPartition(d, []int{0})
		if !p1.PartitionedOn([]int{0}) {
			t.Fatal("HashPartition output not marked partitioned")
		}
		p2 := g.HashPartition(p1, []int{0})
		if s := c.PlanCacheStats(); s.PartitionHits != 1 {
			t.Fatalf("charge=%v: identity path not taken: %v", charge, s)
		}
		if !sameFrags(p1, p2) {
			t.Fatal("identity repartition changed fragments")
		}

		// The charge must match what the full loop computes: with self-
		// sends charged, every tuple lands on its own server (recv =
		// fragment sizes); under physical accounting nothing moves.
		ref := NewCluster(4, WithChargeSelfSends(charge), WithPlanCache(false))
		rg := ref.Root()
		rp1 := rg.HashPartition(rg.Scatter(big(relation.NewSchema(0, 1), 500)), []int{0})
		rg.HashPartition(rp1, []int{0})
		if ref.Stats() != c.Stats() {
			t.Fatalf("charge=%v: identity stats %v, reference %v", charge, c.Stats(), ref.Stats())
		}
	}
}

func TestPlanReplayAfterOutputMutation(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(big(relation.NewSchema(0, 1), 400))
	out1 := g.HashPartition(d, []int{0})
	want := out1.Collect().Clone()

	// Mutating a memoized output fragment bumps its version, so the next
	// hit cannot return it — it must replay the index lists instead.
	out1.Frags[0].AddValues(999, 999)
	out2 := g.HashPartition(d, []int{0})
	s := c.PlanCacheStats()
	if s.Hits != 1 || s.InvalidatedReplays != 1 {
		t.Fatalf("expected one invalidated replay: %v", s)
	}
	if got := out2.Collect(); got.Len() != want.Len() || !got.Equal(want) {
		t.Fatal("replayed output differs from the original computation")
	}

	// The replay refreshed the memo: a third call returns it directly.
	g.HashPartition(d, []int{0})
	s = c.PlanCacheStats()
	if s.Hits != 2 || s.InvalidatedReplays != 1 {
		t.Fatalf("memo not refreshed by replay: %v", s)
	}
}

func TestPlanCacheInputMutationMisses(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(big(relation.NewSchema(0, 1), 400))
	g.HashPartition(d, []int{0})
	// Mutating an input fragment changes its version: the old plan can
	// never be returned for the new content (fresh stamps are unique).
	d.Frags[0].AddValues(123, 456)
	out := g.HashPartition(d, []int{0})
	if s := c.PlanCacheStats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("mutated input must miss: %v", s)
	}
	if out.Len() != 401 {
		t.Fatalf("recomputed exchange lost tuples: %d", out.Len())
	}
}

func TestPlanCacheEvictionBound(t *testing.T) {
	pc := newPlanCache()
	mk := func(n int) *exchangePlan {
		return &exchangePlan{dst: make([]uint32, n), recv: []int{n}}
	}
	pc.store("a", mk(maxPlanTuples*3/4))
	if pc.evictions.Load() != 0 || len(pc.entries) != 1 {
		t.Fatalf("first store evicted: entries=%d", len(pc.entries))
	}
	// Second store overflows the bound: the cache clears, then admits it.
	pc.store("b", mk(maxPlanTuples/2))
	if pc.evictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", pc.evictions.Load())
	}
	if _, ok := pc.entries["a"]; ok {
		t.Fatal("eviction kept the old entry")
	}
	if _, ok := pc.entries["b"]; !ok {
		t.Fatal("eviction dropped the new entry")
	}
	// A single plan larger than the whole bound is never admitted.
	pc.store("c", mk(maxPlanTuples+1))
	if _, ok := pc.entries["c"]; ok {
		t.Fatal("oversized plan admitted")
	}
}

// TestPlanCacheConcurrentBranches drives concurrent Parallel branches
// through HashPartition on one shared distributed relation, so every
// branch computes the same cache key and the lookups/stores genuinely
// collide. Run under -race; every branch must still see a correct
// exchange regardless of which branch's plan wins.
func TestPlanCacheConcurrentBranches(t *testing.T) {
	in := big(relation.NewSchema(0, 1), 2000)

	// Reference exchange and the shared input fragments, built on a
	// throwaway cache-off cluster (HashPartition never mutates its input).
	seed := NewCluster(4, WithPlanCache(false))
	sd := seed.Root().Scatter(in)
	want := seed.Root().HashPartition(sd, []int{0}).Collect()

	c := NewCluster(4, withForcedWorkers(4))
	d := &DistRelation{Schema: sd.Schema, Frags: sd.Frags}
	const branches = 8
	outs := make([]*relation.Relation, branches)
	bs := make([]Branch, branches)
	for i := range bs {
		i := i
		bs[i] = Branch{Servers: 4, Run: func(sub *Group) {
			outs[i] = sub.HashPartition(d, []int{0}).Collect()
		}}
	}
	c.Root().Parallel(bs)
	for i, out := range outs {
		if out == nil || !out.Equal(want) {
			t.Fatalf("branch %d produced a wrong exchange", i)
		}
	}
	s := c.PlanCacheStats()
	if got := s.Hits + s.Misses; got != branches {
		t.Fatalf("lookups = %d, want %d (%v)", got, branches, s)
	}
	if s.Misses < 1 {
		t.Fatalf("no branch recorded a plan: %v", s)
	}
}
