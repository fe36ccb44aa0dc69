package mpc

import (
	"fmt"
	"os"
	"testing"

	"coverpack/internal/relation"
)

func fill(schema relation.Schema, n int) *relation.Relation {
	r := relation.New(schema)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, schema.Len())
		for j := range t {
			t[j] = int64(i*7 + j)
		}
		r.Add(t)
	}
	return r
}

// maxFrag returns d's largest fragment size.
func maxFrag(d *DistRelation) int {
	m := 0
	for _, f := range d.Frags {
		m = max(m, f.Len())
	}
	return m
}

func TestScatterEven(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0, 1), 103))
	if d.Len() != 103 {
		t.Fatalf("Len = %d", d.Len())
	}
	if m := maxFrag(d); m > (103+3)/4+1 {
		t.Fatalf("largest fragment %d, not even", m)
	}
	if got := c.Stats(); got.Rounds != 0 || got.MaxLoad != 0 {
		t.Fatalf("Scatter should be free, got %v", got)
	}
}

func TestHashPartitionGroupsKeys(t *testing.T) {
	c := NewCluster(5)
	g := c.Root()
	r := relation.New(relation.NewSchema(0, 1))
	for i := int64(0); i < 100; i++ {
		r.AddValues(i%10, i)
	}
	d := g.Scatter(r)
	h := g.HashPartition(d, []int{0})
	if h.Len() != 100 {
		t.Fatalf("lost tuples: %d", h.Len())
	}
	// All tuples with the same key on one server.
	owner := map[int64]int{}
	for s, f := range h.Frags {
		for _, tp := range f.Tuples() {
			if prev, ok := owner[tp[0]]; ok && prev != s {
				t.Fatalf("key %d on servers %d and %d", tp[0], prev, s)
			}
			owner[tp[0]] = s
		}
	}
	st := c.Stats()
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.TotalUnits != 100 {
		t.Fatalf("total = %d", st.TotalUnits)
	}
	if st.MaxLoad < 10 { // at least one server holds a full key group
		t.Fatalf("load = %d", st.MaxLoad)
	}
}

func TestBroadcastLoad(t *testing.T) {
	c := NewCluster(3)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 30))
	b := g.Broadcast(d)
	for i, f := range b.Frags {
		if f.Len() != 30 {
			t.Fatalf("server %d has %d tuples", i, f.Len())
		}
	}
	st := c.Stats()
	if st.MaxLoad != 30 || st.TotalUnits != 90 || st.Rounds != 1 {
		t.Fatalf("stats = %v", st)
	}
}

func TestGather(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 20))
	r := g.Gather(d)
	if r.Len() != 20 {
		t.Fatalf("gathered %d", r.Len())
	}
	if st := c.Stats(); st.MaxLoad != 20 || st.Rounds != 1 {
		t.Fatalf("stats = %v", st)
	}
}

func TestRouteReplication(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 10))
	// Send every tuple to servers 0 and 1.
	r := g.Route(d, func(src int, tp relation.Tuple) []int { return []int{0, 1} })
	if r.Frags[0].Len() != 10 || r.Frags[1].Len() != 10 || r.Frags[2].Len() != 0 {
		t.Fatal("replication wrong")
	}
	if st := c.Stats(); st.MaxLoad != 10 || st.TotalUnits != 20 {
		t.Fatalf("stats = %v", st)
	}
}

// A route function may return a slice it holds: the engine reuses it as
// the buffer within that exchange only, so a later exchange's route,
// appending into its buffer, leaves the held slice intact.
func TestRouteKeepsNoReturnedSlice(t *testing.T) {
	c := NewCluster(4, withForcedWorkers(1))
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 10))
	held := []int{0, 1}
	g.Route(d, func(int, relation.Tuple) []int { return held })
	g.RouteBuf(d, func(_ int, _ relation.Tuple, buf []int) []int { return held })
	g.RouteBuf(d, func(_ int, _ relation.Tuple, buf []int) []int { return append(buf[:0], 3, 2) })
	if held[0] != 0 || held[1] != 1 {
		t.Fatalf("held destinations overwritten: %v", held)
	}
}

func TestRoutePanicsOnBadDest(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCluster(2)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 2))
	g.Route(d, func(int, relation.Tuple) []int { return []int{5} })
}

func TestLocalNoCost(t *testing.T) {
	c := NewCluster(2)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0, 1), 10))
	out := Local(g, d, relation.ProjectStep(d.Schema, relation.NewSchema(0)))
	if out.Len() != 10 || out.Schema.Len() != 1 {
		t.Fatal("Local transform wrong")
	}
	if st := c.Stats(); st.Rounds != 0 || st.TotalUnits != 0 {
		t.Fatalf("Local should be free: %v", st)
	}
}

func TestParallelAccounting(t *testing.T) {
	c := NewCluster(10)
	g := c.Root()
	g.Parallel([]Branch{
		{Servers: 4, Run: func(sub *Group) {
			d := sub.Scatter(fill(relation.NewSchema(0), 40))
			sub.HashPartition(d, []int{0}) // 1 round
		}},
		{Servers: 6, Run: func(sub *Group) {
			d := sub.Scatter(fill(relation.NewSchema(0), 60))
			h := sub.HashPartition(d, []int{0})
			sub.Broadcast(h) // 2 rounds total
		}},
	})
	st := c.Stats()
	if st.Rounds != 2 { // parallel: max(1,2)
		t.Fatalf("rounds = %d, want 2", st.Rounds)
	}
	if st.ServersUsed != 10 { // 4+6 concurrent
		t.Fatalf("servers = %d, want 10", st.ServersUsed)
	}
	if st.MaxLoad != 60 { // broadcast of 60 tuples to each of 6
		t.Fatalf("load = %d, want 60", st.MaxLoad)
	}
}

// TestSubgroupSequential keeps its name from the retired Subgroup: two
// one-branch Parallel blocks in a row are sequential steps on
// subgroups, so their rounds add.
func TestSubgroupSequential(t *testing.T) {
	c := NewCluster(8)
	g := c.Root()
	g.Parallel([]Branch{{Servers: 3, Run: func(sub *Group) {
		d := sub.Scatter(fill(relation.NewSchema(0), 30))
		sub.HashPartition(d, []int{0})
	}}})
	g.Parallel([]Branch{{Servers: 5, Run: func(sub *Group) {
		d := sub.Scatter(fill(relation.NewSchema(0), 50))
		sub.HashPartition(d, []int{0})
	}}})
	st := c.Stats()
	if st.Rounds != 2 { // sequential: 1+1
		t.Fatalf("rounds = %d, want 2", st.Rounds)
	}
	if st.ServersUsed != 8 { // root used = budget (max of 3, 5, initial 8)
		t.Fatalf("servers = %d", st.ServersUsed)
	}
}

func TestParallelServersExceedBudget(t *testing.T) {
	// Virtual overcommit is allowed and visible in ServersUsed.
	c := NewCluster(2)
	g := c.Root()
	g.Parallel([]Branch{
		{Servers: 3, Run: func(sub *Group) { sub.ChargeControl([]int{1, 0, 0}) }},
		{Servers: 4, Run: func(sub *Group) { sub.ChargeControl([]int{1, 0, 0, 0}) }},
	})
	if st := c.Stats(); st.ServersUsed != 7 {
		t.Fatalf("servers = %d, want 7", st.ServersUsed)
	}
}

func TestSendToResize(t *testing.T) {
	c := NewCluster(6)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 30))
	small := resize(g, d, 2)
	if len(small.Frags) != 2 || small.Len() != 30 {
		t.Fatal("resize lost data")
	}
	if m := maxFrag(small); m != 15 {
		t.Fatalf("uneven resize: %d", m)
	}
	if st := c.Stats(); st.MaxLoad != 15 || st.Rounds != 1 {
		t.Fatalf("stats = %v", st)
	}
}

func TestChargeControl(t *testing.T) {
	c := NewCluster(3)
	g := c.Root()
	g.ChargeControl([]int{5, 1, 0})
	if st := c.Stats(); st.MaxLoad != 5 || st.TotalUnits != 6 || st.Rounds != 1 {
		t.Fatalf("stats = %v", st)
	}
}

func TestNewClusterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(0)
}

func TestNestedParallel(t *testing.T) {
	c := NewCluster(16)
	g := c.Root()
	g.Parallel([]Branch{
		{Servers: 8, Run: func(sub *Group) {
			sub.Parallel([]Branch{
				{Servers: 4, Run: func(s2 *Group) { s2.ChargeControl(make([]int, 4)) }},
				{Servers: 4, Run: func(s2 *Group) {
					s2.ChargeControl(make([]int, 4))
					s2.ChargeControl(make([]int, 4))
				}},
			})
		}},
		{Servers: 8, Run: func(sub *Group) { sub.ChargeControl(make([]int, 8)) }},
	})
	st := c.Stats()
	if st.Rounds != 2 { // max( max(1,2), 1 )
		t.Fatalf("rounds = %d, want 2", st.Rounds)
	}
	if st.ServersUsed != 16 {
		t.Fatalf("servers = %d, want 16", st.ServersUsed)
	}
}

// TestWithSpillIsInert: WithSpill has no effect, with or without a
// directory and at any budget. Exchanges and a Gather on such a cluster
// produce what a plain cluster produces, with the same accounting, and
// write nothing to the directory.
func TestWithSpillIsInert(t *testing.T) {
	rel := relation.New(relation.NewSchema(0, 1))
	for i := int64(0); i < 1500; i++ {
		rel.AddValues(i%17, i)
	}
	run := func(workers int, opts ...Option) (*relation.Relation, Stats) {
		c := NewCluster(4, append([]Option{WithWorkers(workers)}, opts...)...)
		defer c.Release()
		g := c.Root()
		h := g.HashPartition(g.Scatter(rel), []int{0})
		out := g.Gather(g.Broadcast(h)).Clone() // Clone: survives Release
		return out, c.Stats()
	}
	for _, workers := range []int{1, 4} {
		wantRel, wantStats := run(workers)
		for _, c := range []struct {
			name   string
			dir    bool
			budget int64
		}{
			{"no-dir", false, 1},
			{"zero-budget", true, 0},
			{"one-byte-budget", true, 1},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, c.name), func(t *testing.T) {
				dir := ""
				if c.dir {
					dir = t.TempDir()
				}
				gotRel, gotStats := run(workers, WithSpill(dir, c.budget))
				if gotStats != wantStats {
					t.Fatalf("accounting changed:\n want %+v\n  got %+v", wantStats, gotStats)
				}
				if !gotRel.Equal(wantRel) {
					t.Fatal("exchange results changed")
				}
				if dir == "" {
					return
				}
				if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
					t.Fatalf("%d entries left in %s (err %v)", len(ents), dir, err)
				}
			})
		}
	}
}

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

// Re-partitioning a relation already partitioned on the key is the
// identity exchange: nothing is hashed, and the fragments and charge are
// those of hashing the same relation without its mark — every tuple
// lands on its own server, so the charge is the fragment sizes.
func TestPartitionIdentityFastPath(t *testing.T) {
	key := []int{0}
	c := NewCluster(4)
	g := c.Root()
	p1 := g.HashPartition(g.Scatter(big(relation.NewSchema(0, 1), 500)), key)
	if !p1.PartitionedOn(key) {
		t.Fatal("HashPartition output not marked partitioned")
	}
	p2 := g.HashPartition(p1, key)
	if s := c.PlanCacheStats(); s.PartitionHits != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("identity path not taken: %+v", s)
	}
	if !p2.PartitionedOn(key) {
		t.Fatal("identity output lost its mark")
	}

	ref := NewCluster(4)
	rg := ref.Root()
	rp1 := rg.HashPartition(rg.Scatter(big(relation.NewSchema(0, 1), 500)), key)
	rp2 := rg.HashPartition(&DistRelation{Schema: rp1.Schema, Frags: rp1.Frags}, key)
	if s := ref.PlanCacheStats(); s.PartitionHits != 0 || s.Misses != 2 {
		t.Fatalf("unmarked relation not hashed: %+v", s)
	}
	if !sameFrags(p2, rp2) {
		t.Fatal("identity repartition differs from hashing")
	}
	if ref.Stats() != c.Stats() {
		t.Fatalf("identity stats %v, reference %v", c.Stats(), ref.Stats())
	}
}

// Concurrent Parallel branches partition at the same time, so the
// cluster's HashPartition counts are shared across goroutines (run under
// -race): every branch hashes one input and takes the identity path on
// one already-partitioned input.
func TestHashPartitionCountsUnderParallelBranches(t *testing.T) {
	key := []int{0}
	c := NewCluster(4, withForcedWorkers(4))
	g := c.Root()
	d := g.Scatter(big(relation.NewSchema(0, 1), 2000))
	parted := g.HashPartition(d, key)
	const branches = 8
	outs := make([][2]*DistRelation, branches)
	bs := make([]Branch, branches)
	for i := range bs {
		bs[i] = Branch{Servers: 4, Run: func(sub *Group) {
			outs[i] = [2]*DistRelation{sub.HashPartition(d, key), sub.HashPartition(parted, key)}
		}}
	}
	g.Parallel(bs)
	for i, o := range outs {
		if !sameFrags(o[0], parted) || !sameFrags(o[1], parted) {
			t.Fatalf("branch %d produced a wrong exchange", i)
		}
	}
	if s := c.PlanCacheStats(); s.Misses != 1+branches || s.PartitionHits != branches {
		t.Fatalf("counts %+v, want %d hashed and %d identity", s, 1+branches, branches)
	}
}
