package fractional

import (
	"math/big"
	"testing"

	"coverpack/internal/hypergraph"
)

func TestSquareJoinProvable(t *testing.T) {
	// The paper: Q_□ is edge-packing-provable; the Theorem 6 instance
	// uses x_A = x_B = x_C = 1/3, x_D = x_E = x_F = 2/3 with the
	// probabilistic relation E' = {R2}.
	q := hypergraph.SquareJoin()
	w, err := EdgePackingProvable(q)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Provable {
		t.Fatalf("square join not provable: %s", w.Reason)
	}
	// By the hub symmetry of Q_□ both {R1} and {R2} witness; the search
	// must return one singleton hub.
	hub := w.ProbEdges.Contains(q.EdgeIndex("R1")) || w.ProbEdges.Contains(q.EdgeIndex("R2"))
	if w.ProbEdges.Len() != 1 || !hub {
		t.Fatalf("E' = %s, want a singleton hub", q.FormatEdges(w.ProbEdges))
	}
	if w.Epsilon.Sign() <= 0 {
		t.Fatalf("epsilon = %s", w.Epsilon.RatString())
	}
	// The witness must be an optimal cover (number = τ* = 3)…
	if w.Cover.Number.Cmp(big.NewRat(3, 1)) != 0 {
		t.Fatalf("cover number = %s", w.Cover.Number.RatString())
	}
	// …deterministic edges tight, probabilistic edge strictly above 1.
	one := big.NewRat(1, 1)
	for e := 0; e < q.NumEdges(); e++ {
		sum := w.Cover.EdgeSum(e)
		if w.ProbEdges.Contains(e) {
			if sum.Cmp(one) <= 0 {
				t.Fatalf("probabilistic edge %s has sum %s", q.Edge(e).Name, sum.RatString())
			}
		} else if sum.Cmp(one) != 0 {
			t.Fatalf("deterministic edge %s has sum %s", q.Edge(e).Name, sum.RatString())
		}
	}
	if !w.Cover.IsConstantSmall(w.Epsilon) {
		t.Fatal("witness not constant-small at its own epsilon")
	}
}

func TestSpokeJoinsProvable(t *testing.T) {
	for k := 3; k <= 5; k++ {
		q := hypergraph.SpokeJoin(k)
		w, err := EdgePackingProvable(q)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Provable {
			t.Fatalf("spoke-%d not provable: %s", k, w.Reason)
		}
		ratIs(t, w.Cover.Number, int64(k), 1, q.Name()+" witness cover = tau")
	}
}

func TestEvenCycleProvable(t *testing.T) {
	// Even cycles satisfy Definition 5.4 with E' = ∅ (all-deterministic
	// hard instance, τ* = ρ* = k/2).
	q := hypergraph.CycleJoin(4)
	w, err := EdgePackingProvable(q)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Provable {
		t.Fatalf("C4 not provable: %s", w.Reason)
	}
	if !w.ProbEdges.IsEmpty() {
		t.Fatalf("C4 E' = %s, want empty", q.FormatEdges(w.ProbEdges))
	}
}

func TestNotProvableCases(t *testing.T) {
	for _, tc := range []struct {
		q      *hypergraph.Query
		reason string
	}{
		{hypergraph.TriangleJoin(), "odd"},
		{hypergraph.CycleJoin(5), "odd"},
		{hypergraph.PathJoin(3), "degree-two"},
		{hypergraph.MustParse("unreduced", "R1(A,B) R2(A,B)"), "reduced"},
	} {
		w, err := EdgePackingProvable(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if w.Provable {
			t.Errorf("%s: unexpectedly provable", tc.q.Name())
			continue
		}
		if w.Reason == "" {
			t.Errorf("%s: empty reason", tc.q.Name())
		}
	}
}

func TestCheckDegreeTwoFacts(t *testing.T) {
	// Lemma 5.3 on the catalog's reduced degree-two joins.
	for _, q := range []*hypergraph.Query{
		hypergraph.SquareJoin(),
		hypergraph.SpokeJoin(4),
		hypergraph.TriangleJoin(),
		hypergraph.CycleJoin(4),
		hypergraph.CycleJoin(5),
		hypergraph.CycleJoin(6),
	} {
		f, err := CheckDegreeTwo(q)
		if err != nil {
			t.Fatal(err)
		}
		if !f.SumIsEdgeCount {
			t.Errorf("%s: tau+rho != |E| (tau=%s rho=%s)", q.Name(), f.Tau.RatString(), f.Rho.RatString())
		}
		if !f.TauAtLeastHalfE || !f.RhoAtMostHalfE {
			t.Errorf("%s: tau >= |E|/2 >= rho violated", q.Name())
		}
		if !f.PackingHalfInt || !f.CoverHalfInt {
			t.Errorf("%s: optima not half-integral", q.Name())
		}
		if !f.IntegralIfNoCycl {
			t.Errorf("%s: odd-cycle-free but non-integral optima", q.Name())
		}
	}
}

func TestCheckDegreeTwoRejects(t *testing.T) {
	if _, err := CheckDegreeTwo(hypergraph.PathJoin(3)); err == nil {
		t.Fatal("expected rejection of non-degree-two query")
	}
}

func TestNeighborCondition(t *testing.T) {
	q := hypergraph.SquareJoin()
	// Both hubs probabilistic: every spoke would have two probabilistic
	// neighbors — must be rejected structurally.
	both := hypergraph.NewEdgeSet(q.EdgeIndex("R1"), q.EdgeIndex("R2"))
	if neighborCondition(q, both) {
		t.Fatal("two-hub candidate should fail the neighbor condition")
	}
	if !neighborCondition(q, hypergraph.NewEdgeSet(q.EdgeIndex("R2"))) {
		t.Fatal("single-hub candidate should pass")
	}
}

func TestIsConstantSmall(t *testing.T) {
	q := hypergraph.SquareJoin()
	va := &VertexAssignment{
		Query: q,
		Weights: map[int]*big.Rat{
			q.AttrID("A"): big.NewRat(1, 3),
			q.AttrID("D"): big.NewRat(2, 3),
		},
	}
	if !va.IsConstantSmall(big.NewRat(1, 3)) {
		t.Fatal("1/3-small check failed")
	}
	if va.IsConstantSmall(big.NewRat(1, 2)) {
		t.Fatal("1/2-small check should fail with a 2/3 weight")
	}
	if va.Value(q.AttrID("B")).Sign() != 0 {
		t.Fatal("missing attr should read as zero")
	}
}

// EdgeSum returns Σ_{v ∈ e} x_v for edge e.
func (v *VertexAssignment) EdgeSum(e int) *big.Rat {
	sum := new(big.Rat)
	for _, a := range v.Query.EdgeVars(e).Attrs() {
		sum.Add(sum, v.Value(a))
	}
	return sum
}

// IsConstantSmall reports whether max_v x_v <= 1 − ε for the given ε
// (Definition 5.4's "constant-small" requirement).
func (v *VertexAssignment) IsConstantSmall(eps *big.Rat) bool {
	limit := new(big.Rat).Sub(big.NewRat(1, 1), eps)
	for _, w := range v.Weights {
		if w.Cmp(limit) > 0 {
			return false
		}
	}
	return true
}
