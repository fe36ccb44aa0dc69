package lowerbound

import (
	"strings"
	"testing"

	"coverpack/internal/fractional"
	"coverpack/internal/hypergraph"
	"coverpack/internal/workload"
)

// TestSingleEdgeQueryRejected: a one-relation query has no Section 5
// counting argument — it is not degree-two, so Analyze must refuse it
// with the classification reason rather than fabricate a bound, and
// the raw witness must carry the same reason for callers that probe
// provability directly.
func TestSingleEdgeQueryRejected(t *testing.T) {
	q := hypergraph.MustParse("single", "R1(A,B)")
	if _, err := Analyze(q); err == nil {
		t.Fatal("Analyze accepted a single-edge query")
	} else if !strings.Contains(err.Error(), "degree-two") {
		t.Fatalf("rejection reason %q does not name the failed class", err)
	}
	w, err := fractional.EdgePackingProvable(q)
	if err != nil {
		t.Fatal(err)
	}
	if w.Provable {
		t.Fatal("single-edge query reported edge-packing-provable")
	}
}

// TestEmptyPackingWitnessMeasureJ: C4's witness has E' = ∅ (the hard
// instance is all-deterministic), so J(L) degenerates to the product of
// the per-attribute budgets alone. At the smallest load L=1 exactly one
// result is reachable, and non-positive L clamps to 1 instead of
// underflowing the strategy search.
func TestEmptyPackingWitnessMeasureJ(t *testing.T) {
	q := hypergraph.CycleJoin(4)
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Witness.ProbEdges.IsEmpty() {
		t.Fatalf("C4 witness E' = %v, want empty", a.Witness.ProbEdges)
	}
	in := workload.ProvableHard(q, a.Witness, 64, 5)
	j := MeasureJ(a, in, 1)
	if j.L != 1 || j.Best != 1 {
		t.Fatalf("J(1) = %+v, want L=1 Best=1", j)
	}
	for _, l := range []int{0, -3} {
		jc := MeasureJ(a, in, l)
		if jc.L != 1 || jc.Best != j.Best {
			t.Fatalf("J(%d) = %+v, want clamped to J(1) = %+v", l, jc, j)
		}
	}
}

// TestMinLoadPOne: the p=1 degenerate sweep point. One server must hold
// everything, the load ladder starts (and ends) at L = N, and both
// bound formulas collapse to N — MinLoad must return exactly that
// instead of overshooting or looping.
func TestMinLoadPOne(t *testing.T) {
	q := hypergraph.SquareJoin()
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.ProvableHard(q, a.Witness, 216, 9)
	out := int64(in.Rel(0).Len()) * int64(in.Rel(1).Len())
	r := MinLoad(a, in, 1, out)
	n := in.N()
	if r.MinL != n {
		t.Fatalf("p=1: MinL = %d, want N = %d", r.MinL, n)
	}
	if r.PackingBound != float64(n) || r.CoverBound != float64(n) {
		t.Fatalf("p=1: bounds (%v, %v), want both N = %d", r.PackingBound, r.CoverBound, n)
	}
	if r.Out != out {
		t.Fatalf("p=1: Out = %d, want %d", r.Out, out)
	}
}

// TestMinLoadZeroOutput: with nothing to count against, the very first
// ladder rung L = N/p is already feasible — the inversion must stop
// there rather than scan the whole ladder.
func TestMinLoadZeroOutput(t *testing.T) {
	q := hypergraph.SquareJoin()
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.ProvableHard(q, a.Witness, 216, 9)
	p := 4
	r := MinLoad(a, in, p, 0)
	if want := in.N() / p; r.MinL != want {
		t.Fatalf("out=0: MinL = %d, want first rung N/p = %d", r.MinL, want)
	}
}
