package cyclic

import (
	"math"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/workload"
)

func TestRunTriangleExactOnUniform(t *testing.T) {
	q := hypergraph.TriangleJoin()
	in := workload.Uniform(q, 400, 60, 3)
	want := in.JoinSize()
	c := mpc.NewCluster(16)
	res, err := RunTriangle(c.Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != want {
		t.Fatalf("emitted %d, want %d", res.Emitted, want)
	}
}

func TestRunTriangleExactOnSkew(t *testing.T) {
	q := hypergraph.TriangleJoin()
	// Heavy hub: value 0 everywhere, plus light diagonal — the
	// all-pattern strata all fire.
	in := workload.HeavyHub(q, 300)
	want := in.JoinSize()
	c := mpc.NewCluster(16)
	res, err := RunTriangle(c.Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != want {
		t.Fatalf("emitted %d, want %d", res.Emitted, want)
	}
}

func TestRunTriangleExactOnMatching(t *testing.T) {
	q := hypergraph.TriangleJoin()
	in := workload.Matching(q, 500)
	c := mpc.NewCluster(27)
	res, err := RunTriangle(c.Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 500 {
		t.Fatalf("emitted %d, want 500", res.Emitted)
	}
}

func TestRunTriangleExactOnAGMWorstCase(t *testing.T) {
	q := hypergraph.TriangleJoin()
	in, err := workload.AGMWorstCase(q, 400) // 20² per attr pair; output 400^1.5 = 8000
	if err != nil {
		t.Fatal(err)
	}
	want := in.JoinSize()
	c := mpc.NewCluster(27)
	res, err := RunTriangle(c.Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != want {
		t.Fatalf("emitted %d, want %d", res.Emitted, want)
	}
}

func TestRunTriangleLoadScaling(t *testing.T) {
	// Worst-case load must track N/p^{2/3} in shape: compare p=8 vs
	// p=64 (theory ratio 4).
	q := hypergraph.TriangleJoin()
	in, err := workload.AGMWorstCase(q, 1024)
	if err != nil {
		t.Fatal(err)
	}
	loads := map[int]int{}
	for _, p := range []int{8, 64} {
		c := mpc.NewCluster(p)
		if _, err := RunTriangle(c.Root(), in); err != nil {
			t.Fatal(err)
		}
		loads[p] = c.Stats().MaxLoad
	}
	ratio := float64(loads[8]) / float64(loads[64])
	if ratio < 1.8 {
		t.Fatalf("load scaling too flat: %v (ratio %.2f)", loads, ratio)
	}
	bound := float64(1024) / math.Pow(64, 2.0/3.0)
	if float64(loads[64]) > 8*bound {
		t.Fatalf("p=64 load %d far above N/p^(2/3) = %.0f", loads[64], bound)
	}
}

func TestTriangleShapeRejections(t *testing.T) {
	for _, q := range []*hypergraph.Query{
		hypergraph.PathJoin(3),
		hypergraph.SquareJoin(),
		hypergraph.LoomisWhitneyJoin(4),
		hypergraph.MustParse("fat", "R1(A,B,C) R2(B,C) R3(C,A)"),
	} {
		c := mpc.NewCluster(4)
		in := workload.Matching(q, 5)
		if _, err := RunTriangle(c.Root(), in); err == nil {
			t.Errorf("%s: expected rejection", q.Name())
		}
	}
}

func TestRunTriangleEmptyRelation(t *testing.T) {
	q := hypergraph.TriangleJoin()
	in := workload.Matching(q, 10)
	in.Relations[1] = relation.New(in.Rel(1).Schema()) // empty it
	c := mpc.NewCluster(4)
	res, err := RunTriangle(c.Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted != 0 {
		t.Fatalf("emitted %d from empty relation", res.Emitted)
	}
}
