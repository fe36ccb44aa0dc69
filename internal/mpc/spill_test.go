package mpc

import (
	"os"
	"testing"

	"coverpack/internal/relation"
)

// The spill placement policy is pinned end to end by the root package's
// spill difftest arms (byte-identical reports/traces with spilling on
// or off); this file pins the policy mechanics — budget enforcement,
// pointer dedup across plan-cache replays, engine-dependent park
// eligibility, and Release cleanup.

// keyedRel builds n rows over (0,1) with a small key domain, enough
// bytes to overflow tiny spill budgets.
func keyedRel(n int) *relation.Relation {
	r := relation.New(relation.NewSchema(0, 1))
	for i := int64(0); i < int64(n); i++ {
		r.AddValues(i%17, i)
	}
	return r
}

func TestSpillParksExchangeOutputsOverBudget(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "sequential", 4: "parallel"}[workers], func(t *testing.T) {
			dir := t.TempDir()
			before := relation.SpillStats()
			c := NewCluster(4, WithWorkers(workers), WithSpill(dir, 1)) // 1 byte: everything parks
			g := c.Root()
			d := g.Scatter(keyedRel(2000))
			h := g.HashPartition(d, []int{0})

			parked := 0
			for _, f := range h.Frags {
				if f.Parked() {
					parked++
				}
			}
			if parked == 0 {
				t.Fatal("no HashPartition output fragment was parked under a 1-byte budget")
			}
			if got := relation.SpillStats().Parks - before.Parks; got == 0 {
				t.Fatal("park counter did not move")
			}
			// The sequential engine re-measures every tracked fragment,
			// so it re-parks the Scatter inputs HashPartition paged back
			// in. The parallel engine may touch only the exchange that
			// just completed: its promise is that no admission leaves
			// more than the budget resident, which is what its retained
			// total counts (the paged-in inputs are published and stay).
			if c.Workers() > 1 {
				for _, f := range h.Frags {
					if f.Len() > 0 && !f.Parked() {
						t.Fatal("parallel engine left a fresh over-budget output fragment resident")
					}
				}
			}
			if ret := c.SpillRetained(); ret > 1 {
				t.Fatalf("retained %d bytes over the 1-byte budget", ret)
			}
			if c.SpillRetainedPeak() > 1 {
				t.Fatalf("peak retained %d bytes over budget", c.SpillRetainedPeak())
			}

			// Parked fragments are still fully readable (page-in is
			// transparent), and the exchange's accounting is unchanged.
			if got := h.Len(); got != 2000 {
				t.Fatalf("parked exchange lost tuples: %d", got)
			}
			sn := c.SpillSnapshot()
			if sn.Parks == 0 || sn.RetainedPeakBytes > 1 {
				t.Fatalf("snapshot inconsistent: %+v", sn)
			}
			c.Release()
		})
	}
}

func TestSpillReleaseRemovesRunDirectory(t *testing.T) {
	dir := t.TempDir()
	c := NewCluster(4, WithSpill(dir, 1))
	g := c.Root()
	d := g.Scatter(keyedRel(3000))
	g.HashPartition(d, []int{0})
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected one per-run subdirectory, found %d entries", len(ents))
	}
	c.Release()
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("Release left %d entries in the spill dir", len(ents))
	}
	if c.SpillRetained() != 0 {
		t.Fatal("retained gauge nonzero after Release")
	}
	// Admissions after Release are inert (broken state), not crashes.
	c.admitFrags([]*relation.Relation{keyedRel(10)})
}

func TestSpillDedupsRepeatedFragments(t *testing.T) {
	dir := t.TempDir()
	c := NewCluster(2, WithSpill(dir, 1<<30)) // huge budget: track, never park
	frags := []*relation.Relation{keyedRel(100), keyedRel(50)}
	c.admitFrags(frags)
	c.admitFrags(frags) // plan-cache replay hands the same pointers back
	if got := len(c.spill.tracked); got != 2 {
		t.Fatalf("tracked %d fragments, want 2 (pointer dedup)", got)
	}
	want := frags[0].ArenaBytes() + frags[1].ArenaBytes()
	if got := c.SpillRetained(); got != want {
		t.Fatalf("retained %d bytes, want %d (double counting?)", got, want)
	}
	c.Release()
}

func TestSpillInertWithoutConfig(t *testing.T) {
	before := relation.SpillStats()
	// No WithSpill (the zero-cost path), no directory, no budget: each
	// leaves the cluster fully resident.
	for _, opts := range [][]Option{nil, {WithSpill("", 1)}, {WithSpill(t.TempDir(), 0)}} {
		c := NewCluster(4, opts...)
		g := c.Root()
		g.HashPartition(g.Scatter(keyedRel(2000)), []int{0})
		c.Release()
	}
	if got := relation.SpillStats().Parks - before.Parks; got != 0 {
		t.Fatalf("%d parks happened with spilling unconfigured", got)
	}
}

// TestSpillParkedOperandsFlowThroughExchanges parks fragments, then
// drives them through further exchanges and a Gather: page-in plus the
// streaming readers must reconstruct every tuple.
func TestSpillParkedOperandsFlowThroughExchanges(t *testing.T) {
	dir := t.TempDir()
	run := func(opts ...Option) (*relation.Relation, Stats) {
		c := NewCluster(4, opts...)
		defer c.Release()
		g := c.Root()
		h := g.HashPartition(g.Scatter(keyedRel(1500)), []int{0})
		b := g.Broadcast(h)
		out := g.Gather(b).Clone() // Clone: survives Release
		return out, c.Stats()
	}
	wantRel, wantStats := run()
	gotRel, gotStats := run(WithSpill(dir, 1))
	if wantStats != gotStats {
		t.Fatalf("spilling changed accounting:\n want %+v\n  got %+v", wantStats, gotStats)
	}
	if !gotRel.Equal(wantRel) {
		t.Fatal("spilling changed exchange results")
	}
}
