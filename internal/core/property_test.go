package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/workload"
)

// randomAcyclicQuery grows a random acyclic query: each new relation
// attaches to a random attribute of the existing query plus 0–2 fresh
// attributes (so arities vary and absorption/reduction paths trigger).
func randomAcyclicQuery(rng *rand.Rand) *hypergraph.Query {
	q := hypergraph.NewQuery("rand")
	nEdges := 2 + rng.Intn(4)
	attrs := []string{"V0", "V1"}
	q.AddEdge("R0", "V0", "V1")
	next := 2
	for i := 1; i < nEdges; i++ {
		anchor := attrs[rng.Intn(len(attrs))]
		edgeAttrs := []string{anchor}
		for j := 0; j <= rng.Intn(2); j++ {
			fresh := fmt.Sprintf("V%d", next)
			next++
			attrs = append(attrs, fresh)
			edgeAttrs = append(edgeAttrs, fresh)
		}
		q.AddEdge(fmt.Sprintf("R%d", i), edgeAttrs...)
	}
	return q
}

// TestPropertyBothStrategiesMatchOracle is the central end-to-end
// property: on random acyclic queries and random (sometimes skewed)
// instances, both runs of the generic algorithm emit exactly the oracle
// join size.
func TestPropertyBothStrategiesMatchOracle(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomAcyclicQuery(rng)
		if !q.IsAcyclic() {
			t.Logf("seed %d: generator produced cyclic query %s", seed, q)
			return false
		}
		var in *relation.Instance
		if rng.Intn(2) == 0 {
			in = workload.Uniform(q, 20+rng.Intn(40), 10, uint64(seed)+1)
		} else {
			in = workload.HeavyHub(q, 20+rng.Intn(40))
		}
		want := in.JoinSize()
		p := []int{2, 5, 8}[rng.Intn(3)]
		for _, strat := range []Strategy{Conservative, PathOptimal} {
			c := mpc.NewCluster(p)
			res, err := Run(c.Root(), in, Options{Strategy: strat})
			if err != nil {
				t.Logf("seed %d (%s, %v, p=%d): %v", seed, q, strat, p, err)
				return false
			}
			if res.Emitted != want {
				t.Logf("seed %d (%s, %v, p=%d): emitted %d, oracle %d",
					seed, q, strat, p, res.Emitted, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDecompositionIsLinearCover: on random acyclic queries the
// path-optimal decomposition produces node-disjoint paths covering a
// subset of relations, and never errors.
func TestPropertyDecompositionIsLinearCover(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomAcyclicQuery(rng)
		choices, err := Decomposition(q)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		seen := map[string]bool{}
		for _, c := range choices {
			if c.Attr == "" || len(c.Path) == 0 {
				t.Logf("seed %d: empty choice", seed)
				return false
			}
			for _, rel := range c.Path {
				if seen[rel] {
					t.Logf("seed %d: %s peeled twice", seed, rel)
					return false
				}
				seen[rel] = true
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEmptyRelationAnnihilates: zeroing any single relation
// forces zero output under both strategies.
func TestPropertyEmptyRelationAnnihilates(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(31))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomAcyclicQuery(rng)
		in := workload.Uniform(q, 15, 5, uint64(seed)+3)
		kill := rng.Intn(q.NumEdges())
		in.Relations[kill] = relation.New(in.Rel(kill).Schema())
		for _, strat := range []Strategy{Conservative, PathOptimal} {
			c := mpc.NewCluster(4)
			res, err := Run(c.Root(), in, Options{Strategy: strat})
			if err != nil || res.Emitted != 0 {
				t.Logf("seed %d (%v): emitted=%d err=%v", seed, strat, res.Emitted, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDecompositionFigure4 pins the figure-4 decomposition shape used
// by the Figure 5 experiment.
func TestDecompositionFigure4(t *testing.T) {
	choices, err := Decomposition(hypergraph.Figure4Join())
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) < 2 {
		t.Fatalf("choices = %d", len(choices))
	}
	// All peeled paths must have length >= 2 on this query (there is
	// always a shareable parent).
	for _, c := range choices {
		if len(c.Path) < 2 {
			t.Errorf("degenerate path %v", c.Path)
		}
	}
}

// TestLIsMonotoneInP: the chosen threshold decreases as servers grow.
func TestLIsMonotoneInP(t *testing.T) {
	in := workload.Figure4Hard(6)
	for _, strat := range []Strategy{Conservative, PathOptimal} {
		prev := 1 << 60
		for _, p := range []int{2, 8, 32, 128} {
			l := ChooseL(in, p, strat)
			if l > prev {
				t.Errorf("%v: L grew with p (%d -> %d)", strat, prev, l)
			}
			prev = l
		}
	}
}

// TestPathOptimalTieOnSubquery: two equally long paths on a residual
// subquery tie-break on their leaves' original edge ids. Here the second
// choice sees live edges [1 3 4] (R3 R1 wins on V2), and comparing a
// leaf with the incumbent path's first edge, an original id, must not
// index origOf by it.
func TestPathOptimalTieOnSubquery(t *testing.T) {
	q := hypergraph.MustParse("tie", "R0(V0,V1) R1(V0,V2,V3) R2(V1,V4) R3(V2,V5) R4(V3,V6,V7)")
	choices, err := Decomposition(q)
	if err != nil || len(choices) != 2 {
		t.Fatalf("Decomposition = %v, %v; want two choices", choices, err)
	}
	in := workload.Uniform(q, 40, 10, 1)
	res, err := Run(mpc.NewCluster(5).Root(), in, Options{Strategy: PathOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if want := in.JoinSize(); res.Emitted != want {
		t.Fatalf("emitted %d, oracle %d", res.Emitted, want)
	}
}
