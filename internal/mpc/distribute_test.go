package mpc

import (
	"slices"
	"testing"

	"coverpack/internal/relation"
)

// TestDistributeSplitsAndCharges: even values go to branch 0 (2
// servers), odd ones to branch 1 (3 servers), first round-robin, then
// replicated over their branch.
func TestDistributeSplitsAndCharges(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 30))
	parity := func(tp relation.Tuple) int { return int(tp[0] % 2) }
	evens, odds := 0, 0
	for _, tp := range d.Collect().Tuples() {
		if tp[0]%2 == 0 {
			evens++
		} else {
			odds++
		}
	}
	rr := g.DistributeSpread(d, []int{2, 3}, false, parity)
	if len(rr) != 2 {
		t.Fatalf("parts = %d", len(rr))
	}
	for b, want := range []int{evens, odds} {
		if rr[b].Len() != want {
			t.Fatalf("round-robin branch %d has %d, want %d", b, rr[b].Len(), want)
		}
		k := rr[b].Servers()
		for s, f := range fragRels(&rr[b]) {
			if n := want/k + min(1, max(0, want%k-s)); f.Len() != n {
				t.Fatalf("round-robin branch %d server %d has %d, want %d", b, s, f.Len(), n)
			}
		}
	}
	bc := g.DistributeSpread(d, []int{2, 3}, true, parity)
	for b, want := range []int{evens, odds} {
		for s, f := range fragRels(&bc[b]) {
			if f.Len() != want {
				t.Fatalf("broadcast branch %d server %d has %d, want %d (replicated)", b, s, f.Len(), want)
			}
		}
	}
	st := c.Stats()
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.TotalUnits != int64(30+2*evens+3*odds) {
		t.Fatalf("total = %d, want %d", st.TotalUnits, 30+2*evens+3*odds)
	}
}

func TestDistributePanics(t *testing.T) {
	c := NewCluster(2)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 2))
	for _, bc := range []struct {
		name  string
		sizes []int
		pick  int
	}{
		{"zero-size branch", []int{0}, -1},
		{"out-of-range branch", []int{1}, 1},
		{"negative branch other than -1", []int{1}, -2},
	} {
		for _, broadcast := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (broadcast %v) should panic", bc.name, broadcast)
					}
				}()
				g.DistributeSpread(d, bc.sizes, broadcast, func(relation.Tuple) int { return bc.pick })
			}()
		}
	}
}

func TestDistributeDropsUnrouted(t *testing.T) {
	c := NewCluster(2)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 10))
	for _, broadcast := range []bool{false, true} {
		parts := g.DistributeSpread(d, []int{1, 2}, broadcast, func(relation.Tuple) int {
			return -1 // drop everything
		})
		if parts[0].Len() != 0 || parts[1].Len() != 0 {
			t.Fatalf("broadcast %v: dropped tuples reappeared: %d, %d", broadcast, parts[0].Len(), parts[1].Len())
		}
	}
	if st := c.Stats(); st.TotalUnits != 0 || st.Rounds != 2 {
		t.Fatalf("stats = %v", st)
	}
}

func TestDeclareServers(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	g.DeclareServers(100)
	if st := c.Stats(); st.ServersUsed != 100 {
		t.Fatalf("servers = %d, want 100", st.ServersUsed)
	}
	g.DeclareServers(50) // never shrinks
	if st := c.Stats(); st.ServersUsed != 100 {
		t.Fatalf("servers = %d after smaller declare", st.ServersUsed)
	}
}

// TestLoadObserverHook: a round's loads reach the cluster's recorder.
func TestLoadObserverHook(t *testing.T) {
	rec := &recvRecorder{}
	c := NewCluster(2, WithRecorder(rec))
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 8))
	g.Broadcast(d)
	if len(rec.recvs) != 1 || slices.Max(rec.recvs[0]) != 8 {
		t.Fatalf("recorder saw %v, want one round of load 8", rec.recvs)
	}
}
