package mpc

import (
	"fmt"
	"os"
	"slices"
	"strings"
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
	for _, f := range fragRels(d) {
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
	for s, f := range fragRels(h) {
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
	for i, f := range fragRels(b) {
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
	before := slices.Clone(d.Collect().Clone().Data())
	r := g.Gather(d)
	if r.Len() != 20 || !slices.Equal(r.Data(), before) {
		t.Fatalf("gathered %v, want %v", r.Data(), before)
	}
	if st := c.Stats(); st.MaxLoad != 20 || st.Rounds != 1 {
		t.Fatalf("stats = %v", st)
	}
	// The gathered rows are d's arena: sorting or growing them leaves d's
	// fragments as they were.
	r.SortBy([]int{0})
	r.AddValues(-1)
	if !slices.Equal(d.Collect().Clone().Data(), before) {
		t.Fatal("mutating the gathered relation wrote d's fragments")
	}
}

func TestRouteReplication(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 10))
	// Send every tuple to servers 0 and 1.
	r := g.Route(d, func(src int, tp relation.Tuple) []int { return []int{0, 1} })
	if r.FragLen(0) != 10 || r.FragLen(1) != 10 || r.FragLen(2) != 0 {
		t.Fatal("replication wrong")
	}
	if st := c.Stats(); st.MaxLoad != 10 || st.TotalUnits != 20 {
		t.Fatalf("stats = %v", st)
	}
}

// A route function may return a slice it holds: the engine only reads
// it, so the held slice stays intact.
func TestRouteKeepsNoReturnedSlice(t *testing.T) {
	c := NewCluster(4, withForcedWorkers(1))
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 10))
	held := []int{0, 1}
	g.Route(d, func(int, relation.Tuple) []int { return held })
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

// A RouteFan base whose fan reaches past the group panics, before any
// copy is counted.
func TestRouteFanPanicsPastGroup(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "route base 3") {
			t.Fatalf("recovered %v, want a route base panic", r)
		}
	}()
	g := NewCluster(4).Root()
	d := g.Scatter(fill(relation.NewSchema(0), 2))
	g.RouteFan(d, func(int, relation.Tuple) int { return 3 }, []int{0, 1})
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
		{Servers: 4, Run: func(sub *Group) (int64, error) {
			d := sub.Scatter(fill(relation.NewSchema(0), 40))
			sub.HashPartition(d, []int{0}) // 1 round
			return 0, nil
		}},
		{Servers: 6, Run: func(sub *Group) (int64, error) {
			d := sub.Scatter(fill(relation.NewSchema(0), 60))
			h := sub.HashPartition(d, []int{0})
			sub.Broadcast(h) // 2 rounds total
			return 0, nil
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
	g.Parallel([]Branch{{Servers: 3, Run: func(sub *Group) (int64, error) {
		d := sub.Scatter(fill(relation.NewSchema(0), 30))
		sub.HashPartition(d, []int{0})
		return 0, nil
	}}})
	g.Parallel([]Branch{{Servers: 5, Run: func(sub *Group) (int64, error) {
		d := sub.Scatter(fill(relation.NewSchema(0), 50))
		sub.HashPartition(d, []int{0})
		return 0, nil
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
		{Servers: 3, Run: func(sub *Group) (int64, error) {
			sub.ChargeControl([]int{1, 0, 0})
			return 0, nil
		}},
		{Servers: 4, Run: func(sub *Group) (int64, error) {
			sub.ChargeControl([]int{1, 0, 0, 0})
			return 0, nil
		}},
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
	if small.Servers() != 2 || small.Len() != 30 {
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
		{Servers: 8, Run: func(sub *Group) (int64, error) {
			sub.Parallel([]Branch{
				{Servers: 4, Run: func(s2 *Group) (int64, error) {
					s2.ChargeControl(make([]int, 4))
					return 0, nil
				}},
				{Servers: 4, Run: func(s2 *Group) (int64, error) {
					s2.ChargeControl(make([]int, 4))
					s2.ChargeControl(make([]int, 4))
					return 0, nil
				}},
			})
			return 0, nil
		}},
		{Servers: 8, Run: func(sub *Group) (int64, error) {
			sub.ChargeControl(make([]int, 8))
			return 0, nil
		}},
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
	if a.Servers() != b.Servers() {
		return false
	}
	for i := range a.Servers() {
		af, bf := a.Frag(i), b.Frag(i)
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
	rp2 := rg.HashPartition(&DistRelation{Frags: rp1.Frags}, key)
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
		bs[i] = Branch{Servers: 4, Run: func(sub *Group) (int64, error) {
			outs[i] = [2]*DistRelation{sub.HashPartition(d, key), sub.HashPartition(parted, key)}
			return 0, nil
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

// TestFreeOwnership: Free puts back exactly the arenas relations own —
// each once, whether freed twice, through a copy of the relation or
// released afterwards — and skips a relation that views another's
// arena, which stays readable until its owner is freed.
func TestFreeOwnership(t *testing.T) {
	key := []int{0}
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(big(relation.NewSchema(0, 1), 500))
	parted := g.HashPartition(d, key)
	view := g.HashPartition(parted, key) // identity: views parted's arena
	all := parted.Collect()
	want := slices.Clone(all.Data())
	local := Local(g, parted, relation.ProjectStep(parted.Schema, relation.NewSchema(1)))
	copied := *local

	returned := func() uint64 { st := relation.PoolStats(); return st.Puts + st.Discards }
	check := func(what string, free func(), want uint64) {
		t.Helper()
		before := returned()
		free()
		if got := returned() - before; got != want {
			t.Errorf("%s: %d arenas put back, want %d", what, got, want)
		}
	}
	check("a view", func() { g.Free(view, nil) }, 0)
	if all := view.Collect(); !slices.Equal(all.Data(), want) {
		t.Fatal("freeing a view changed the arena it views")
	}
	check("an owner, twice, and a copy of it", func() { g.Free(local, local, &copied) }, 1)
	check("an owner of an identity view", func() { g.Free(parted) }, 1)
	check("Release", c.Release, 1) // d's blob, which nothing freed
	check("Release again", c.Release, 0)
}
