package mpc

import (
	"slices"
	"testing"

	"coverpack/internal/relation"
)

func TestDistributeSplitsAndCharges(t *testing.T) {
	c := NewCluster(4)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 30))
	// Tuples with even value to branch 0 (2 servers, round-robin),
	// odd to branch 1 (3 servers, replicated).
	parts := g.DistributeSpread(d, []int{2, 3}, func(f *relation.Relation, tp relation.Tuple) []BranchSend {
		if tp[0]%2 == 0 {
			return []BranchSend{{Branch: 0}}
		}
		return []BranchSend{{Branch: 1, Broadcast: true}}
	})
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	evens, odds := 0, 0
	for _, tp := range d.Collect().Tuples() {
		if tp[0]%2 == 0 {
			evens++
		} else {
			odds++
		}
	}
	if parts[0].Len() != evens {
		t.Fatalf("branch 0 has %d, want %d", parts[0].Len(), evens)
	}
	for s, f := range parts[1].Frags {
		if f.Len() != odds {
			t.Fatalf("branch 1 server %d has %d, want %d (replicated)", s, f.Len(), odds)
		}
	}
	st := c.Stats()
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.TotalUnits != int64(evens+3*odds) {
		t.Fatalf("total = %d, want %d", st.TotalUnits, evens+3*odds)
	}
}

func TestDistributePanics(t *testing.T) {
	c := NewCluster(2)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 2))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-size branch should panic")
			}
		}()
		g.DistributeSpread(d, []int{0}, func(*relation.Relation, relation.Tuple) []BranchSend { return nil })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range branch should panic")
			}
		}()
		g.DistributeSpread(d, []int{1}, func(*relation.Relation, relation.Tuple) []BranchSend {
			return []BranchSend{{Branch: 1}}
		})
	}()
}

func TestDistributeDropsUnrouted(t *testing.T) {
	c := NewCluster(2)
	g := c.Root()
	d := g.Scatter(fill(relation.NewSchema(0), 10))
	parts := g.DistributeSpread(d, []int{1}, func(*relation.Relation, relation.Tuple) []BranchSend {
		return nil // drop everything
	})
	if parts[0].Len() != 0 {
		t.Fatalf("dropped tuples reappeared: %d", parts[0].Len())
	}
	if st := c.Stats(); st.TotalUnits != 0 || st.Rounds != 1 {
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
