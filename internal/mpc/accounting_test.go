package mpc

import (
	"slices"
	"strconv"
	"testing"

	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// The SendTo, Distribute, self-send and load-observer tests keep the
// names they had when those exchanges, the physical-accounting switch
// and the load observer existed: each checks the behaviour that
// survives them — resizing and branch placement through
// DistributeSpread, the paper's charge for a server's own tuples, and
// per-round loads through a trace recorder.

// resize moves d onto k servers, flattened tuple i to server i mod k:
// DistributeSpread into one round-robin branch.
func resize(g *Group, d *DistRelation, k int) *DistRelation {
	return &g.DistributeSpread(d, []int{k}, false, func(relation.Tuple) int { return 0 })[0]
}

// TestSendToGrowingGroup checks a resize into a larger group: the
// round's recv vector covers every destination and the load is the
// balanced share of the target size.
func TestSendToGrowingGroup(t *testing.T) {
	c := NewCluster(2)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 12))
	out := resize(g, d, 6)
	if out.Servers() != 6 {
		t.Fatalf("frags = %d", out.Servers())
	}
	for s, f := range fragRels(out) {
		if f.Len() != 2 {
			t.Fatalf("server %d has %d, want 2", s, f.Len())
		}
	}
	if st := c.Stats(); st.MaxLoad != 2 || st.TotalUnits != 12 {
		t.Fatalf("stats = %v", st)
	}
}

// TestSendToShrinkPaddingLoad checks that shrinking into k < g.size
// pads recv with zero entries for the unused source slots without
// inflating MaxLoad.
func TestSendToShrinkPaddingLoad(t *testing.T) {
	c := NewCluster(6)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 4))
	out := resize(g, d, 2)
	if out.Len() != 4 {
		t.Fatalf("tuples = %d", out.Len())
	}
	if st := c.Stats(); st.MaxLoad != 2 {
		t.Fatalf("max load = %d, want 2 (padding must stay zero)", st.MaxLoad)
	}
}

// TestDistributeGrowingTotal checks a branch exchange whose branches
// total more servers than the group has.
func TestDistributeGrowingTotal(t *testing.T) {
	c := NewCluster(2)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 14))
	parts := g.DistributeSpread(d, []int{3, 4}, false, func(tp relation.Tuple) int { return int(tp[0] % 2) })
	if parts[0].Servers() != 3 || parts[1].Servers() != 4 {
		t.Fatalf("branch sizes = %d, %d", parts[0].Servers(), parts[1].Servers())
	}
	if parts[0].Len()+parts[1].Len() != 14 {
		t.Fatalf("tuples lost: %d + %d", parts[0].Len(), parts[1].Len())
	}
	// 7 evens over 3 servers round-robin → max 3; 7 odds over 4 → max 2.
	if st := c.Stats(); st.MaxLoad != 3 || st.TotalUnits != 14 {
		t.Fatalf("stats = %v", st)
	}
}

// TestDistributePaddingNeverInflatesMaxLoad routes everything to a
// single one-server branch inside a larger group: the recv vector is
// padded to g.size, and only the real destination carries load.
func TestDistributePaddingNeverInflatesMaxLoad(t *testing.T) {
	c := NewCluster(8)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 5))
	parts := g.DistributeSpread(d, []int{1}, false, func(relation.Tuple) int { return 0 })
	if parts[0].Len() != 5 {
		t.Fatalf("tuples = %d", parts[0].Len())
	}
	if st := c.Stats(); st.MaxLoad != 5 || st.TotalUnits != 5 {
		t.Fatalf("stats = %v (padding inflated the load?)", st)
	}
}

// TestDistributeReplicatedDestinations replicates every tuple to all
// servers of a branch; each destination is charged once per copy.
func TestDistributeReplicatedDestinations(t *testing.T) {
	c := NewCluster(3)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 6))
	parts := g.DistributeSpread(d, []int{4}, true, func(relation.Tuple) int { return 0 })
	for s, f := range fragRels(&parts[0]) {
		if f.Len() != 6 {
			t.Fatalf("server %d has %d, want 6 (replication)", s, f.Len())
		}
	}
	if st := c.Stats(); st.MaxLoad != 6 || st.TotalUnits != 24 {
		t.Fatalf("stats = %v", st)
	}
}

// TestGatherSelfSendAccounting: Gather charges server 0 its own
// fragment too — every tuple it holds afterwards.
func TestGatherSelfSendAccounting(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	g.Gather(g.Scatter(fill(relation.NewSchema(0), 8))) // 2 per server on p=4
	if st := c.Stats(); st.TotalUnits != 8 || st.MaxLoad != 8 {
		t.Fatalf("stats = %v, want server 0 charged all 8 tuples", st)
	}
}

// TestHashPartitionSelfSendAccounting places all tuples on server 0:
// the tuples hashed back to server 0 are charged like the others, so
// every server's charge is the fragment it ends up with.
func TestHashPartitionSelfSendAccounting(t *testing.T) {
	rec := &recvRecorder{}
	c := NewCluster(4, WithRecorder(rec))
	g := c.Root()
	d := blocks(fill(relation.NewSchema(0), 32), 32, 0, 0, 0)
	out := g.HashPartition(d, []int{0})
	if out.FragLen(0) == 0 {
		t.Fatal("hash sent nothing back to server 0; self-send path unexercised")
	}
	for i, f := range fragRels(out) {
		if rec.recvs[0][i] != f.Len() {
			t.Fatalf("server %d charged %d, holds %d", i, rec.recvs[0][i], f.Len())
		}
	}
	if st := c.Stats(); st.TotalUnits != 32 {
		t.Fatalf("total = %d, want 32", st.TotalUnits)
	}
}

// TestLoadObserverPerCluster runs two traced clusters in parallel —
// the scenario a process-wide load hook could not survive under the
// race detector: each recorder sees its own cluster's loads.
func TestLoadObserverPerCluster(t *testing.T) {
	for _, n := range []int{4, 8} {
		n := n
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rec := &recvRecorder{}
			c := NewCluster(2, WithRecorder(rec))
			g := c.Root()
			g.Broadcast(g.Scatter(fill(relation.NewSchema(0), n)))
			if len(rec.recvs) != 1 || slices.Max(rec.recvs[0]) != n {
				t.Fatalf("recorder saw %v, want one round of load %d", rec.recvs, n)
			}
		})
	}
}

// TestRecorderSpanTree checks that the simulator mirrors its structure
// into an attached collector: phase spans via Group.Span, structural
// spans for Parallel branches, one event per exchange.
func TestRecorderSpanTree(t *testing.T) {
	col := trace.NewCollector()
	c := NewCluster(4, WithRecorder(col))
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 8))
	g.Span("warmup", func() { g.Broadcast(d) })
	g.Parallel([]Branch{
		{Servers: 2, Run: func(sub *Group) (int64, error) {
			sub.ChargeControl([]int{1, 2})
			return 0, nil
		}},
		{Servers: 1, Run: func(sub *Group) (int64, error) { return 0, nil }},
	})

	root := col.Root()
	if len(root.Children) != 3 {
		t.Fatalf("root children = %d", len(root.Children))
	}
	warm := root.Children[0]
	if warm.Name != "warmup" || warm.Kind != trace.KindPhase || len(warm.Events) != 1 {
		t.Fatalf("warmup span = %+v", warm)
	}
	if ev := warm.Events[0]; ev.Op != trace.OpBroadcast || ev.Hist.Max != 8 || ev.Hist.Total != 32 {
		t.Fatalf("broadcast event = %+v", ev)
	}
	b0 := root.Children[1]
	if b0.Name != "branch 0" || b0.Kind != trace.KindParallel || b0.Servers != 2 {
		t.Fatalf("branch span = %+v", b0)
	}
	if len(b0.Events) != 1 || b0.Events[0].Hist.Max != 2 {
		t.Fatalf("branch events = %+v", b0.Events)
	}
	if b1 := root.Children[2]; b1.Kind != trace.KindParallel || len(b1.Events) != 0 {
		t.Fatalf("empty branch span = %+v", b1)
	}
}

// TestNopRecorderZeroAlloc pins the hot-path contract: with the default
// (or an explicit nil) recorder, charging a round allocates nothing.
func TestNopRecorderZeroAlloc(t *testing.T) {
	for _, c := range []*Cluster{
		NewCluster(4),
		NewCluster(4, WithRecorder(nil)),
	} {
		g := c.Root()
		units := []int{1, 2, 3, 4}
		if n := testing.AllocsPerRun(100, func() { g.ChargeControl(units) }); n != 0 {
			t.Fatalf("ChargeControl allocates %v per run with recorder off", n)
		}
	}
}

// TestNotesBranchOrder: notes left inside concurrent Parallel branches
// (nested ones included) read back in the order a sequential run leaves
// them, so a decision log is the same for every worker count.
func TestNotesBranchOrder(t *testing.T) {
	notes := func(workers int) []string {
		col := trace.NewCollector()
		g := NewCluster(8, withForcedWorkers(workers), WithRecorder(col)).Root()
		g.Note("start")
		branches := make([]Branch, 4)
		for i := range branches {
			i := i
			branches[i] = Branch{Servers: 2, Run: func(sub *Group) (int64, error) {
				sub.Note("branch " + strconv.Itoa(i))
				sub.Parallel([]Branch{
					{Servers: 1, Run: func(s *Group) (int64, error) {
						s.Note("inner " + strconv.Itoa(i) + ".0")
						return 0, nil
					}},
					{Servers: 1, Run: func(s *Group) (int64, error) {
						s.ChargeControl([]int{i})
						s.Note("inner " + strconv.Itoa(i) + ".1")
						return 0, nil
					}},
				})
				return 0, nil
			}}
		}
		g.Parallel(branches)
		g.Span("end", func() { g.Note("end") })
		return trace.Notes(col.Root())
	}
	seq, par := notes(1), notes(4)
	if len(seq) != 14 || seq[0] != "start" || seq[1] != "branch 0" || seq[13] != "end" {
		t.Fatalf("sequential notes = %q", seq)
	}
	if !slices.Equal(seq, par) {
		t.Fatalf("notes at 4 workers = %q, at 1 worker %q", par, seq)
	}
}

// TestNoteWithoutRecorderZeroAlloc: without a recorder, Note and
// Recording allocate nothing.
func TestNoteWithoutRecorderZeroAlloc(t *testing.T) {
	g := NewCluster(4).Root()
	if g.Recording() {
		t.Fatal("a cluster without a recorder reports Recording")
	}
	if n := testing.AllocsPerRun(100, func() {
		if g.Recording() {
			t.Fatal("Recording flipped")
		}
		g.Note("case I: x=A")
	}); n != 0 {
		t.Fatalf("Note and Recording allocate %v per run without a recorder", n)
	}
	if !NewCluster(4, WithRecorder(trace.NewCollector())).Root().Recording() {
		t.Fatal("a cluster with a collector does not report Recording")
	}
}
