package yannakakis

import (
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/workload"
)

// TestRunCountsExactly checks the count against the oracle and pins the
// cost: MaxLoad and Rounds are the values measured when the root's last
// join was still built, so counting it instead is local and uncharged.
func TestRunCountsExactly(t *testing.T) {
	for _, tc := range []struct {
		q               *hypergraph.Query
		n               int
		dom             int64
		maxLoad, rounds int
	}{
		{hypergraph.PathJoin(3), 300, 30, 485, 12},
		{hypergraph.PathJoin(5), 200, 30, 1572, 24},
		{hypergraph.StarJoin(3), 150, 30, 622, 18},
		{hypergraph.Figure4Join(), 80, 30, 20, 42},
		{hypergraph.SemiJoinExample(), 200, 250, 33, 12}, // unary relations need dom >= n
	} {
		c := mpc.NewCluster(8)
		in := workload.Uniform(tc.q, tc.n, tc.dom, 11)
		res, err := Run(c.Root(), in)
		if err != nil {
			t.Fatal(err)
		}
		if want := in.JoinSize(); res.Emitted != want {
			t.Errorf("%s: emitted %d, want %d", tc.q.Name(), res.Emitted, want)
		}
		if st := c.Stats(); st.MaxLoad != tc.maxLoad || st.Rounds != tc.rounds {
			t.Errorf("%s: max load %d, rounds %d; want %d, %d", tc.q.Name(), st.MaxLoad, st.Rounds, tc.maxLoad, tc.rounds)
		}
	}
}

func TestRunRejectsCyclic(t *testing.T) {
	c := mpc.NewCluster(4)
	in := workload.Matching(hypergraph.TriangleJoin(), 10)
	if _, err := Run(c.Root(), in); err == nil {
		t.Fatal("expected error for cyclic query")
	}
}

func TestRunDisconnectedQuery(t *testing.T) {
	q := hypergraph.MustParse("disc", "R1(A,B) R2(C,D)")
	in := workload.Uniform(q, 20, 10, 3)
	c := mpc.NewCluster(4)
	res, err := Run(c.Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	if want := in.JoinSize(); res.Emitted != want {
		t.Fatalf("emitted %d, want %d", res.Emitted, want)
	}
	// Single-relation trees need no exchange: the scatter is free.
	if st := c.Stats(); st.MaxLoad != 0 || st.Rounds != 0 {
		t.Fatalf("max load %d, rounds %d; want 0, 0", st.MaxLoad, st.Rounds)
	}
}

// TestRunEmptyFirstComponent: R1(A,B) R2(B,C) R3(D,E) with R1 ⋈ R2
// empty emits nothing, however many rows R3 holds.
func TestRunEmptyFirstComponent(t *testing.T) {
	in := relation.NewInstance(hypergraph.MustParse("disc-empty", "R1(A,B) R2(B,C) R3(D,E)"))
	in.Rel(0).Add(relation.Tuple{1, 2})
	in.Rel(1).Add(relation.Tuple{3, 4})
	in.Rel(2).Add(relation.Tuple{5, 6})
	in.Rel(2).Add(relation.Tuple{7, 8})
	res, err := Run(mpc.NewCluster(4).Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	if want := in.JoinSize(); want != 0 || res.Emitted != want {
		t.Fatalf("emitted %d, oracle %d; want 0", res.Emitted, want)
	}
}

func TestSemiJoinExampleLinearLoad(t *testing.T) {
	// The Section 1.3 example: two rounds of semi-joins give linear
	// load. Check the load stays ~N/p-ish rather than N/sqrt(p): with
	// N=4000, p=16, N/p=250 vs N/sqrt(p)=1000.
	q := hypergraph.SemiJoinExample()
	in := workload.Uniform(q, 4000, 100000, 5)
	c := mpc.NewCluster(16)
	res, err := Run(c.Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	if want := in.JoinSize(); res.Emitted != want {
		t.Fatalf("emitted %d, want %d", res.Emitted, want)
	}
	// Hash imbalance allows a modest constant over N/p.
	if load := c.Stats().MaxLoad; load > 4*4000/16 {
		t.Fatalf("load %d not linear (N/p = %d)", load, 4000/16)
	}
}

func TestOutputSensitivity(t *testing.T) {
	// Yannakakis load includes an OUT/p term: a high-output instance
	// must show higher load than a low-output one at equal N.
	q := hypergraph.PathJoin(3)
	small := workload.Matching(q, 1200) // OUT = N
	big, err := workload.AGMWorstCase(q, 1200)
	if err != nil {
		t.Fatal(err)
	}
	cs := mpc.NewCluster(16)
	if _, err := Run(cs.Root(), small); err != nil {
		t.Fatal(err)
	}
	cb := mpc.NewCluster(16)
	if _, err := Run(cb.Root(), big); err != nil {
		t.Fatal(err)
	}
	if cb.Stats().MaxLoad <= cs.Stats().MaxLoad {
		t.Fatalf("worst-case load %d not above matching load %d",
			cb.Stats().MaxLoad, cs.Stats().MaxLoad)
	}
}
