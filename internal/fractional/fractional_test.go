package fractional

import (
	"math"
	"math/big"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/lp"
)

func ratIs(t *testing.T, got *big.Rat, a, b int64, what string) {
	t.Helper()
	want := big.NewRat(a, b)
	if got.Cmp(want) != 0 {
		t.Fatalf("%s: got %s, want %s", what, got.RatString(), want.RatString())
	}
}

func mustNumbers(t *testing.T, q *hypergraph.Query) Numbers {
	t.Helper()
	n, err := Compute(q)
	if err != nil {
		t.Fatalf("Compute(%s): %v", q.Name(), err)
	}
	return n
}

// TestPaperQuantities pins the exact values the paper states for its
// running examples.
func TestPaperQuantities(t *testing.T) {
	cases := []struct {
		q          *hypergraph.Query
		rhoN, rhoD int64
		tauN, tauD int64
		psiN, psiD int64
	}{
		// Figure 2: ρ* = 2 ({R1,R2}), τ* = 3 ({R3,R4,R5}).
		{hypergraph.SquareJoin(), 2, 1, 3, 1, 3, 1},
		// Triangle: half-integral 3/2 both; ψ* = 2.
		{hypergraph.TriangleJoin(), 3, 2, 3, 2, 2, 1},
		// Section 1.3: ρ* = 1, ψ* = τ* = 2.
		{hypergraph.SemiJoinExample(), 1, 1, 2, 1, 2, 1},
		// Star-dual with m = 3: ρ* = 1, τ* = ψ* = 3.
		{hypergraph.StarDualJoin(3), 1, 1, 3, 1, 3, 1},
		// LW_4: ρ* = τ* = n/(n−1) = 4/3 (footnote 3).
		{hypergraph.LoomisWhitneyJoin(4), 4, 3, 4, 3, 2, 1},
		// Even cycle C4: integral ρ* = τ* = 2.
		{hypergraph.CycleJoin(4), 2, 1, 2, 1, 2, 1},
		// Odd cycle C5: half-integral ρ* = τ* = 5/2.
		{hypergraph.CycleJoin(5), 5, 2, 5, 2, 3, 1},
		// Line-3: ρ* = τ* = ψ* = 2.
		{hypergraph.Line3Join(), 2, 1, 2, 1, 2, 1},
	}
	for _, tc := range cases {
		n := mustNumbers(t, tc.q)
		ratIs(t, n.Rho, tc.rhoN, tc.rhoD, tc.q.Name()+" rho")
		ratIs(t, n.Tau, tc.tauN, tc.tauD, tc.q.Name()+" tau")
		ratIs(t, n.Psi, tc.psiN, tc.psiD, tc.q.Name()+" psi")
	}
}

func TestFigure4Rho(t *testing.T) {
	// Example 3.4 states ρ* = 6 for the Figure 4 query.
	rho, err := Rho(hypergraph.Figure4Join())
	if err != nil {
		t.Fatal(err)
	}
	ratIs(t, rho, 6, 1, "figure4 rho")
}

func TestSpokeJoinNumbers(t *testing.T) {
	for k := 2; k <= 5; k++ {
		q := hypergraph.SpokeJoin(k)
		rho, err := Rho(q)
		if err != nil {
			t.Fatal(err)
		}
		tau, err := Tau(q)
		if err != nil {
			t.Fatal(err)
		}
		ratIs(t, rho, 2, 1, q.Name()+" rho")
		ratIs(t, tau, int64(k), 1, q.Name()+" tau")
	}
}

// TestPsiDominates verifies ψ* >= max{ρ*, τ*} ([19], cited under Table 1)
// across the whole catalog.
func TestPsiDominates(t *testing.T) {
	for _, entry := range hypergraph.Catalog() {
		n := mustNumbers(t, entry.Query)
		if n.Psi.Cmp(n.Tau) < 0 {
			t.Errorf("%s: psi %s < tau %s", entry.Query.Name(), n.Psi.RatString(), n.Tau.RatString())
		}
		if n.Psi.Cmp(n.Rho) < 0 {
			t.Errorf("%s: psi %s < rho %s", entry.Query.Name(), n.Psi.RatString(), n.Rho.RatString())
		}
	}
}

// TestBergeAcyclicTauLeRho verifies Lemma A.3: τ* <= ρ* for reduced
// Berge-acyclic joins.
func TestBergeAcyclicTauLeRho(t *testing.T) {
	for _, entry := range hypergraph.Catalog() {
		q, _ := entry.Query.Reduce()
		if !q.IsBergeAcyclic() {
			continue
		}
		n := mustNumbers(t, q)
		if n.Tau.Cmp(n.Rho) > 0 {
			t.Errorf("%s: berge-acyclic but tau %s > rho %s",
				q.Name(), n.Tau.RatString(), n.Rho.RatString())
		}
	}
}

// TestAcyclicCoverIntegral verifies Lemma A.2: α-acyclic joins admit an
// integral optimal edge cover, and our simplex (returning vertices of
// the cover polytope) produces one.
func TestAcyclicCoverIntegral(t *testing.T) {
	for _, q := range []*hypergraph.Query{
		hypergraph.PathJoin(4),
		hypergraph.PathJoin(7),
		hypergraph.StarJoin(4),
		hypergraph.Figure4Join(),
		hypergraph.TreeJoin(3),
	} {
		cover, err := EdgeCover(q)
		if err != nil {
			t.Fatal(err)
		}
		if !cover.Number.IsInt() {
			t.Errorf("%s: acyclic cover number %s not integral", q.Name(), cover.Number.RatString())
		}
	}
}

func TestVertexCoverDuality(t *testing.T) {
	// Strong duality: vertex cover number equals τ* for every catalog
	// query (they are a primal-dual pair, used throughout Section 5).
	for _, entry := range hypergraph.Catalog() {
		q := entry.Query
		tau, err := Tau(q)
		if err != nil {
			t.Fatal(err)
		}
		vc, err := VertexCover(q)
		if err != nil {
			t.Fatal(err)
		}
		if vc.Number.Cmp(tau) != 0 {
			t.Errorf("%s: vertex cover %s != tau %s", q.Name(), vc.Number.RatString(), tau.RatString())
		}
		// The returned weights must actually cover every edge.
		for e := 0; e < q.NumEdges(); e++ {
			if vc.EdgeSum(e).Cmp(big.NewRat(1, 1)) < 0 {
				t.Errorf("%s: edge %s uncovered", q.Name(), q.Edge(e).Name)
			}
		}
	}
}

func TestAssignmentHelpers(t *testing.T) {
	q := hypergraph.TriangleJoin()
	pack, err := EdgePacking(q)
	if err != nil {
		t.Fatal(err)
	}
	if pack.IsIntegral() {
		t.Fatal("triangle packing should be fractional")
	}
	if !pack.IsHalfIntegral() {
		t.Fatal("triangle packing should be half-integral")
	}
	if pack.Support().Len() != 3 {
		t.Fatalf("support = %v", pack.Support())
	}
	if s := pack.String(); s == "" {
		t.Fatal("empty String()")
	}
	ratIs(t, pack.Weights[0], 1, 2, "edge weight")
}

func TestAGMBound(t *testing.T) {
	q := hypergraph.TriangleJoin()
	n := 10000
	bound, err := AGMBound(q, []int{n, n, n})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(float64(n), 1.5)
	if math.Abs(bound-want)/want > 1e-3 {
		t.Fatalf("AGM = %g, want %g", bound, want)
	}

	// Asymmetric sizes: tiny R1 shifts weight onto it.
	bound2, err := AGMBound(q, []int{1, n, n})
	if err != nil {
		t.Fatal(err)
	}
	if bound2 > float64(n)+1 {
		t.Fatalf("AGM with unit relation = %g, want <= N", bound2)
	}

	// Edge cases.
	if b, err := AGMBound(q, []int{0, n, n}); err != nil || b != 0 {
		t.Fatalf("zero relation: %g, %v", b, err)
	}
	if _, err := AGMBound(q, []int{n, n}); err == nil {
		t.Fatal("size-arity mismatch should error")
	}
	if _, err := AGMBound(q, []int{-1, n, n}); err == nil {
		t.Fatal("negative size should error")
	}
}

func TestPsiRefusesHugeQueries(t *testing.T) {
	q := hypergraph.PathJoin(PsiMaxAttrs + 5)
	if _, err := Psi(q); err == nil {
		t.Fatal("expected attribute-limit error")
	}
}

func TestPathJoinGapGrows(t *testing.T) {
	// The ψ*−ρ* gap the paper highlights for path joins: ψ* strictly
	// exceeds ρ* from length 4 on... at minimum verify monotone growth
	// of both and ψ* >= ρ* throughout.
	prevPsi := new(big.Rat)
	for k := 2; k <= 8; k++ {
		n := mustNumbers(t, hypergraph.PathJoin(k))
		if n.Psi.Cmp(n.Rho) < 0 {
			t.Fatalf("path-%d: psi < rho", k)
		}
		if n.Psi.Cmp(prevPsi) < 0 {
			t.Fatalf("path-%d: psi decreased", k)
		}
		prevPsi = n.Psi
	}
}

// VertexCover computes an optimal fractional vertex covering: minimize
// Σx_v subject to Σ_{v ∈ e} x_v ≥ 1 for every edge e. By LP duality its
// number equals τ* (the paper's Section 5.2 uses this prime-dual pair).
func VertexCover(q *hypergraph.Query) (*VertexAssignment, error) {
	return vertexLP(q, false, lp.GE, "vertex cover")
}
