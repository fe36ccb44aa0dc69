package workload

import (
	"math"
	"testing"

	"coverpack/internal/fractional"
	"coverpack/internal/hypergraph"
	"coverpack/internal/relation"
)

func TestUniformDistinctAndSized(t *testing.T) {
	q := hypergraph.PathJoin(3)
	in := Uniform(q, 200, 100, 1)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < q.NumEdges(); e++ {
		r := in.Rel(e)
		if r.Len() != 200 {
			t.Fatalf("edge %d size = %d", e, r.Len())
		}
		if r.Dedup().Len() != 200 {
			t.Fatalf("edge %d has duplicates", e)
		}
	}
	// Determinism.
	in2 := Uniform(q, 200, 100, 1)
	for e := range in.Relations {
		if !in.Rel(e).Equal(in2.Rel(e)) {
			t.Fatal("same seed must reproduce the instance")
		}
	}
	in3 := Uniform(q, 200, 100, 2)
	same := true
	for e := range in.Relations {
		if !in.Rel(e).Equal(in3.Rel(e)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical instances")
	}
}

func TestUniformPanicsOnImpossible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Uniform(hypergraph.PathJoin(2), 1000, 3, 1) // 3^2 < 1000
}

func TestZipfSkew(t *testing.T) {
	q := hypergraph.PathJoin(2)
	in := Zipf(q, 2000, 1000, 1.2, 3)
	r := in.Rel(0)
	if r.Len() != 2000 || r.Dedup().Len() != 2000 {
		t.Fatal("size or distinctness wrong")
	}
	// The most frequent value must dominate: compare degree of the top
	// value against the uniform expectation.
	counts := map[relation.Value]int{}
	for _, tp := range r.Tuples() {
		counts[tp[0]]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 3*2000/1000 {
		t.Fatalf("top degree %d shows no skew", max)
	}
	// Extreme skew still terminates via the deterministic fill.
	in2 := Zipf(q, 50, 60, 8.0, 4)
	if in2.Rel(0).Len() != 50 {
		t.Fatal("extreme skew did not fill")
	}
}

func TestMatchingJoinSize(t *testing.T) {
	for _, q := range []*hypergraph.Query{
		hypergraph.PathJoin(3),
		hypergraph.TriangleJoin(),
		hypergraph.SquareJoin(),
	} {
		in := Matching(q, 50)
		if got := in.JoinSize(); got != 50 {
			t.Errorf("%s: matching join size = %d, want 50", q.Name(), got)
		}
	}
}

func TestAGMWorstCase(t *testing.T) {
	for _, tc := range []struct {
		q   *hypergraph.Query
		n   int
		rho float64
	}{
		{hypergraph.PathJoin(3), 100, 2},
		{hypergraph.TriangleJoin(), 400, 1.5}, // 400^(1/2)=20 exact
		{hypergraph.StarDualJoin(3), 50, 1},
		{hypergraph.SquareJoin(), 512, 2}, // 512^(1/3)=8 exact
	} {
		in, err := AGMWorstCase(tc.q, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Validate(); err != nil {
			t.Fatal(err)
		}
		if in.N() > tc.n {
			t.Errorf("%s: relation size %d exceeds N=%d", tc.q.Name(), in.N(), tc.n)
		}
		got := float64(in.JoinSize())
		want := math.Pow(float64(tc.n), tc.rho)
		if got < want*0.4 {
			t.Errorf("%s: output %.0f below AGM target %.0f", tc.q.Name(), got, want)
		}
	}
}

func TestFigure4Hard(t *testing.T) {
	n := 8
	in := Figure4Hard(n)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	q := in.Query
	for e := 0; e < q.NumEdges(); e++ {
		if got := in.Rel(e).Len(); got != n {
			t.Fatalf("%s: %d tuples, want %d", q.Edge(e).Name, got, n)
		}
	}
	// e4 is one-to-one on (H, J).
	e4 := rel(in, "e4")
	h, j := q.AttrID("H"), q.AttrID("J")
	for _, tp := range e4.Tuples() {
		if e4.Get(tp, h) != e4.Get(tp, j) {
			t.Fatal("e4 not a matching on (H,J)")
		}
	}
	// Join size: D,E,F,K,G free (n^5), H=J linked (n) => n^6.
	want := int64(math.Pow(float64(n), 6))
	if got := in.JoinSize(); got != want {
		t.Fatalf("join size = %d, want %d", got, want)
	}
}

// Figure4Hard's output is n^6: 2000^6 = 6.4e19 does not fit an int64
// and must read as MaxInt64 (it used to wrap to 2000^6 mod 2^64), while
// the largest n whose n^6 fits stays exact.
func TestFigure4HardJoinSizeSaturates(t *testing.T) {
	if got := Figure4Hard(2000).JoinSize(); got != math.MaxInt64 {
		t.Fatalf("Figure4Hard(2000).JoinSize() = %d, want MaxInt64", got)
	}
	const n = 1448 // 1448^6 < 2^63 < 1449^6
	want := int64(n * n * n)
	want *= want
	if got := Figure4Hard(n).JoinSize(); got != want {
		t.Fatalf("Figure4Hard(%d).JoinSize() = %d, want %d", n, got, want)
	}
}

func TestSquareHardConcentration(t *testing.T) {
	n := 13824 // 24^3 so that n^(1/3) and n^(2/3) are exact
	in := SquareHard(n, 7)
	// Deterministic relations have exactly n tuples.
	for _, name := range []string{"R1", "R3", "R4", "R5"} {
		if got := rel(in, name).Len(); got != n {
			t.Fatalf("%s: %d tuples, want %d", name, got, n)
		}
	}
	// R2 concentrates around n (Chernoff: within 20% for this size).
	r2 := rel(in, "R2").Len()
	if float64(r2) < 0.8*float64(n) || float64(r2) > 1.2*float64(n) {
		t.Fatalf("R2 = %d, expected ~%d", r2, n)
	}
	// The output is |R1| × |R2| analytically: the spokes are complete
	// bipartite products, so every (A,B,C) row joins every (D,E,F) row
	// (verified by materialization at small n below). Materializing
	// n^2 ≈ 1.9e8 rows here would be pointless.
}

func TestSquareHardJoinIsProduct(t *testing.T) {
	n := 64 // 4^3
	in := SquareHard(n, 9)
	want := int64(rel(in, "R1").Len()) * int64(rel(in, "R2").Len())
	if got := in.JoinSize(); got != want {
		t.Fatalf("output = %d, want |R1|·|R2| = %d", got, want)
	}
}

func TestProvableHardSpoke(t *testing.T) {
	q := hypergraph.SpokeJoin(4)
	w, err := fractional.EdgePackingProvable(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 4096 // 8^4: x_A = 1/4 -> dom 8, x_D = 3/4 -> dom 512
	in := ProvableHard(q, w, n, 11)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	det := 0
	for e := 0; e < q.NumEdges(); e++ {
		if !w.ProbEdges.Contains(e) {
			det++
			if got := in.Rel(e).Len(); got != n {
				t.Fatalf("deterministic %s: %d tuples, want %d", q.Edge(e).Name, got, n)
			}
		}
	}
	if det != q.NumEdges()-w.ProbEdges.Len() {
		t.Fatal("edge classification drifted")
	}
	for _, e := range w.ProbEdges.Edges() {
		got := float64(in.Rel(e).Len())
		if got < 0.7*float64(n) || got > 1.3*float64(n) {
			t.Fatalf("probabilistic %s: %0.f tuples, expected ~%d", q.Edge(e).Name, got, n)
		}
	}
}

func TestProvableHardPanicsOnUnprovable(t *testing.T) {
	q := hypergraph.TriangleJoin()
	w, err := fractional.EdgePackingProvable(q)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ProvableHard(q, w, 100, 1)
}

func TestStarDualHard(t *testing.T) {
	in := StarDualHard(3, 100, 5)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.Rel(0).Len() != 100 {
		t.Fatal("R0 size wrong")
	}
	for e := 1; e <= 3; e++ {
		if in.Rel(e).Len() != 100 {
			t.Fatalf("R%d size wrong", e)
		}
	}
	// Every R0 tuple survives: unary relations hold the full domain.
	if got := in.JoinSize(); got != 100 {
		t.Fatalf("join size = %d, want 100", got)
	}
}

func TestHeavyHubSkew(t *testing.T) {
	q := hypergraph.StarJoin(3)
	in := HeavyHub(q, 100)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Satellites have a heavy value 0 of degree ~n/2 on the hub attr.
	r1 := rel(in, "R1")
	x1 := q.AttrID("X1")
	heavy := 0
	for _, tp := range r1.Tuples() {
		if r1.Get(tp, x1) == 0 {
			heavy++
		}
	}
	if heavy < 50 {
		t.Fatalf("heavy degree = %d", heavy)
	}
	for e := 0; e < q.NumEdges(); e++ {
		r := in.Rel(e)
		if r.Dedup().Len() != r.Len() {
			t.Fatalf("%s has duplicates", q.Edge(e).Name)
		}
	}
	// The heavy value produces a large output: (n/2)^3 combinations on
	// hub (0,0,0).
	if got := in.JoinSize(); got < 50*50*50 {
		t.Fatalf("join size = %d, want >= 125000", got)
	}
}

// rel is the relation of the named edge.
func rel(in *relation.Instance, name string) *relation.Relation {
	return in.Rel(in.Query.EdgeIndex(name))
}
