package hypercube

import (
	"math"
	"math/big"
	"testing"

	"coverpack/internal/fractional"
	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/workload"
)

func TestShareExponentsTriangle(t *testing.T) {
	q := hypergraph.TriangleJoin()
	exps, err := ShareExponents(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal symmetric solution: s = 1/3 each; the LP value (min edge
	// sum) is 1/τ* = 2/3. Verify each edge sum >= 2/3 and Σ = 1.
	sum := new(big.Rat)
	for _, a := range q.AllVars().Attrs() {
		sum.Add(sum, exps[a])
	}
	if sum.Cmp(big.NewRat(1, 1)) > 0 {
		t.Fatalf("Σs = %s > 1", sum.RatString())
	}
	twoThirds := big.NewRat(2, 3)
	for e := 0; e < q.NumEdges(); e++ {
		es := new(big.Rat)
		for _, a := range q.EdgeVars(e).Attrs() {
			es.Add(es, exps[a])
		}
		if es.Cmp(twoThirds) < 0 {
			t.Fatalf("edge %d exponent sum %s < 2/3", e, es.RatString())
		}
	}
}

func TestShareExponentsMatchInverseTau(t *testing.T) {
	// The LP optimum min_e Σ_{v∈e} s_v equals 1/τ* for the catalog.
	for _, entry := range hypergraph.Catalog() {
		q := entry.Query
		exps, err := ShareExponents(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		tau, err := fractional.Tau(q)
		if err != nil {
			t.Fatal(err)
		}
		minEdge := new(big.Rat)
		for e := 0; e < q.NumEdges(); e++ {
			es := new(big.Rat)
			for _, a := range q.EdgeVars(e).Attrs() {
				es.Add(es, exps[a])
			}
			if e == 0 || es.Cmp(minEdge) < 0 {
				minEdge = es
			}
		}
		inv := new(big.Rat).Inv(tau)
		if minEdge.Cmp(inv) != 0 {
			t.Errorf("%s: share LP value %s != 1/τ* = %s",
				q.Name(), minEdge.RatString(), inv.RatString())
		}
	}
}

func TestShareExponentsCaps(t *testing.T) {
	q := hypergraph.TriangleJoin()
	a := q.AttrID("X1")
	caps := map[int]*big.Rat{a: big.NewRat(0, 1)}
	exps, err := ShareExponents(q, caps)
	if err != nil {
		t.Fatal(err)
	}
	if exps[a].Sign() != 0 {
		t.Fatalf("capped exponent = %s", exps[a].RatString())
	}
	if _, err := ShareExponents(q, map[int]*big.Rat{999: big.NewRat(1, 2)}); err == nil {
		t.Fatal("unknown attribute cap should error")
	}
}

func TestSharesWithinBudget(t *testing.T) {
	q := hypergraph.TriangleJoin()
	exps, _ := ShareExponents(q, nil)
	for _, p := range []int{1, 2, 7, 8, 27, 64, 100} {
		shares := Shares(q, p, exps, nil)
		prod := 1
		for _, s := range shares {
			if s < 1 {
				t.Fatalf("p=%d: share %d < 1", p, s)
			}
			prod *= s
		}
		if prod > p {
			t.Fatalf("p=%d: grid %d exceeds budget", p, prod)
		}
		if p >= 27 && prod < p/4 {
			t.Fatalf("p=%d: grid %d wastes most of the budget", p, prod)
		}
	}
	// Domain caps bind.
	shares := Shares(q, 64, exps, map[int]int64{q.AttrID("X1"): 2})
	if shares[q.AttrID("X1")] > 2 {
		t.Fatalf("domain cap ignored: %v", shares)
	}
}

func TestRunEmitsExactly(t *testing.T) {
	for _, tc := range []struct {
		q *hypergraph.Query
		n int
	}{
		{hypergraph.TriangleJoin(), 300},
		{hypergraph.PathJoin(3), 200},
		{hypergraph.SquareJoin(), 125},
		{hypergraph.StarDualJoin(3), 35},
	} {
		c := mpc.NewCluster(8)
		in := workload.Uniform(tc.q, tc.n, 40, 3)
		res, err := Run(c.Root(), in)
		if err != nil {
			t.Fatal(err)
		}
		if want := in.JoinSize(); res.Emitted != want {
			t.Errorf("%s: emitted %d, want %d", tc.q.Name(), res.Emitted, want)
		}
		st := c.Stats()
		if st.Rounds != tc.q.NumEdges() { // one Route per relation, same logical round
			t.Logf("%s: %d exchanges (one per relation)", tc.q.Name(), st.Rounds)
		}
		if st.MaxLoad <= 0 {
			t.Errorf("%s: zero load recorded", tc.q.Name())
		}
	}
}

// A relation with a single tuple reaches only the grid cells matching
// its pinned coordinates (2 of the 8 below), so every other server
// holds an empty fragment of it next to nonempty fragments of the
// rest: those servers must emit 0 and the total must still be exact,
// on the acyclic count and on the cyclic fallback.
func TestRunWithEmptyServerFragments(t *testing.T) {
	for _, q := range []*hypergraph.Query{hypergraph.PathJoin(3), hypergraph.TriangleJoin()} {
		in := workload.Uniform(q, 30, 6, 11)
		first := in.Rel(0).Row(0).Clone()
		in.Relations[0] = relation.FromTuples(in.Rel(0).Schema(), []relation.Tuple{first})
		shares := make(map[int]int)
		for _, a := range q.AllVars().Attrs()[:3] {
			shares[a] = 2
		}
		c := mpc.NewCluster(8)
		res := RunWithShares(c.Root(), in, shares, 1)
		if res.GridSize != 8 {
			t.Fatalf("%s: grid %d, want 8", q.Name(), res.GridSize)
		}
		want := int64(in.Join().Len())
		if want == 0 {
			t.Fatalf("%s: fixture joins to nothing", q.Name())
		}
		if res.Emitted != want {
			t.Errorf("%s: emitted %d, want %d", q.Name(), res.Emitted, want)
		}
	}
}

func TestRunLoadScalesWithTau(t *testing.T) {
	// Triangle on matching data: load per relation ~ N/p^{2/3}.
	n := 1200
	q := hypergraph.TriangleJoin()
	in := workload.Matching(q, n)
	loads := map[int]int{}
	for _, p := range []int{8, 64} {
		c := mpc.NewCluster(p)
		res, err := Run(c.Root(), in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Emitted != int64(n) {
			t.Fatalf("p=%d: emitted %d, want %d", p, res.Emitted, n)
		}
		loads[p] = c.Stats().MaxLoad
	}
	// Theory ratio: (64/8)^(2/3) = 4; hashing noise allows slack.
	ratio := float64(loads[8]) / float64(loads[64])
	if ratio < 2.0 {
		t.Fatalf("load did not drop with p^(2/3): %v (ratio %.2f)", loads, ratio)
	}
	// Absolute scale: within a small factor of 3·N/p^{2/3}.
	bound := 3 * float64(n) / math.Pow(64, 2.0/3.0)
	if float64(loads[64]) > 4*bound {
		t.Fatalf("p=64 load %d far above theory %f", loads[64], bound)
	}
}

func TestRunDeterministic(t *testing.T) {
	q := hypergraph.TriangleJoin()
	in := workload.Uniform(q, 200, 50, 1)
	c1 := mpc.NewCluster(8)
	r1, _ := Run(c1.Root(), in)
	c2 := mpc.NewCluster(8)
	r2, _ := Run(c2.Root(), in)
	if r1.Emitted != r2.Emitted || c1.Stats() != c2.Stats() {
		t.Fatal("hypercube not deterministic")
	}
}

func TestRunWithSharesPanicsOnOverflow(t *testing.T) {
	q := hypergraph.TriangleJoin()
	in := workload.Matching(q, 10)
	c := mpc.NewCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunWithShares(c.Root(), in, map[int]int{0: 2, 1: 2, 2: 2}, 1)
}

func TestSkewAwareEmitsExactly(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *relation.Instance
		psi  float64
	}{
		{"uniform-triangle", workload.Uniform(hypergraph.TriangleJoin(), 200, 30, 5), 2},
		{"heavy-star", workload.HeavyHub(hypergraph.StarJoin(2), 60), 2},
		{"heavy-semijoin", workload.HeavyHub(hypergraph.SemiJoinExample(), 80), 2},
	} {
		c := mpc.NewCluster(16)
		res, err := SkewAware(c.Root(), tc.in, tc.psi)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.in.JoinSize(); res.Emitted != want {
			t.Errorf("%s: emitted %d, want %d", tc.name, res.Emitted, want)
		}
		if res.Strata < 1 {
			t.Errorf("%s: no strata", tc.name)
		}
	}
}

func TestSkewAwareBeatsVanillaOnSkew(t *testing.T) {
	// On a heavy-hub star instance the vanilla grid hashes the heavy
	// value to one coordinate, concentrating load; the stratified
	// algorithm isolates the heavy stratum and caps its shares, so its
	// max load must not exceed vanilla's.
	in := workload.HeavyHub(hypergraph.StarJoin(2), 400)
	p := 16

	cv := mpc.NewCluster(p)
	rv, err := Run(cv.Root(), in)
	if err != nil {
		t.Fatal(err)
	}
	cs := mpc.NewCluster(p)
	rs, err := SkewAware(cs.Root(), in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Emitted != rs.Emitted {
		t.Fatalf("emission mismatch: vanilla %d, skew-aware %d", rv.Emitted, rs.Emitted)
	}
	if cs.Stats().MaxLoad > 2*cv.Stats().MaxLoad {
		t.Fatalf("skew-aware load %d far above vanilla %d",
			cs.Stats().MaxLoad, cv.Stats().MaxLoad)
	}
}
