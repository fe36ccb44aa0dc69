package lowerbound

import (
	"math"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/workload"
)

func squareAnalysis(t *testing.T) *Analysis {
	t.Helper()
	a, err := Analyze(hypergraph.SquareJoin())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeSquare(t *testing.T) {
	a := squareAnalysis(t)
	if a.Tau != 3 || a.Rho != 2 {
		t.Fatalf("tau=%v rho=%v", a.Tau, a.Rho)
	}
	if !a.Witness.Provable {
		t.Fatal("witness missing")
	}
}

func TestAnalyzeRejectsTriangle(t *testing.T) {
	if _, err := Analyze(hypergraph.TriangleJoin()); err == nil {
		t.Fatal("triangle should be rejected (odd cycle)")
	}
}

// paperSquareAnalysis is Q_□'s analysis. Its witness is the searched
// one, E' = {R1}, the mirror image of the paper's E' = {R2}.
func paperSquareAnalysis(t *testing.T) *Analysis {
	t.Helper()
	q := hypergraph.SquareJoin()
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMeasureJWithinTheory(t *testing.T) {
	// With high probability no strategy beats 2·L³/N by much; the
	// search must also find a decent fraction of it (the witness
	// allocation achieves Θ(L³/N) on this instance).
	n := 1728 // 12^3
	q := hypergraph.SquareJoin()
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.ProvableHard(q, a.Witness, n, 5)
	for _, L := range []int{n / 4, n / 2, n} {
		j := MeasureJ(a, in, L)
		if float64(j.Best) > 4*j.Theory {
			t.Errorf("L=%d: measured J=%d far above theory %.0f", L, j.Best, j.Theory)
		}
		if j.Best <= 0 {
			t.Errorf("L=%d: search found nothing", L)
		}
		if j.Strategies < 2 {
			t.Errorf("L=%d: too few strategies", L)
		}
	}
}

func TestMeasureJMonotone(t *testing.T) {
	n := 1000
	q := hypergraph.SquareJoin()
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.ProvableHard(q, a.Witness, n, 7)
	j1 := MeasureJ(a, in, n/8)
	j2 := MeasureJ(a, in, n/2)
	if j2.Best < j1.Best {
		t.Fatalf("J not monotone: J(%d)=%d > J(%d)=%d", n/8, j1.Best, n/2, j2.Best)
	}
}

func TestMinLoadTracksPackingBound(t *testing.T) {
	// The headline of Theorem 6: required load ~ N/p^{1/3}, strictly
	// above N/p^{1/2}. Measured MinL must exceed the cover bound and
	// stay within a constant of the packing bound.
	n := 1728
	q := hypergraph.SquareJoin()
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	in := workload.ProvableHard(q, a.Witness, n, 9)
	// OUT on this instance is |hub1| × |hub2|: the complete spokes make
	// the join the Cartesian product of the two hub relations (the
	// instance's expected output N² of Theorem 6).
	out := int64(in.Rel(0).Len()) * int64(in.Rel(1).Len())

	for _, p := range []int{8, 64, 216} {
		r := MinLoad(a, in, p, out)
		if float64(r.MinL) < r.CoverBound {
			t.Errorf("p=%d: MinL %d below even the cover bound %.0f", p, r.MinL, r.CoverBound)
		}
		if float64(r.MinL) > 6*r.PackingBound {
			t.Errorf("p=%d: MinL %d far above packing bound %.0f", p, r.MinL, r.PackingBound)
		}
		if float64(r.MinL) < 0.2*r.PackingBound {
			t.Errorf("p=%d: MinL %d far below packing bound %.0f — bound not exhibited",
				p, r.MinL, r.PackingBound)
		}
	}
}

func TestMinLoadSpokeJoin(t *testing.T) {
	// Figure 7 family: spoke-4 has τ* = 4, ρ* = 2 — the gap between
	// N/p^{1/4} and N/p^{1/2} widens with k.
	q := hypergraph.SpokeJoin(4)
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 4096 // 8^4
	in := workload.ProvableHard(q, a.Witness, n, 3)
	out := int64(in.Rel(0).Len()) * int64(in.Rel(1).Len())
	r := MinLoad(a, in, 16, out)
	if float64(r.MinL) < r.CoverBound {
		t.Errorf("MinL %d below cover bound %.0f", r.MinL, r.CoverBound)
	}
	if float64(r.MinL) > 8*r.PackingBound {
		t.Errorf("MinL %d far above packing bound %.0f", r.MinL, r.PackingBound)
	}
	// The packing and cover bounds genuinely differ here.
	if r.PackingBound <= r.CoverBound {
		t.Fatalf("bounds inverted: packing %.0f <= cover %.0f", r.PackingBound, r.CoverBound)
	}
}

func TestMinLoadEvenCycle(t *testing.T) {
	// C4 satisfies Definition 5.4 with E' = ∅: the hard instance is
	// all-deterministic and τ* = ρ* = 2 — the packing bound coincides
	// with the cover bound (the regime where the one-round algorithm is
	// already optimal, per the paper's closing remark).
	q := hypergraph.CycleJoin(4)
	a, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Witness.ProbEdges.IsEmpty() {
		t.Fatalf("C4 witness E' = %v, want empty", a.Witness.ProbEdges)
	}
	if a.Tau != a.Rho {
		t.Fatalf("C4 tau %v != rho %v", a.Tau, a.Rho)
	}
	n := 1024
	in := workload.ProvableHard(q, a.Witness, n, 5)
	out := in.JoinSize() // N² on the Cartesian instance
	r := MinLoad(a, in, 16, out)
	if r.PackingBound != r.CoverBound {
		t.Fatalf("bounds differ on C4: %v vs %v", r.PackingBound, r.CoverBound)
	}
	if float64(r.MinL) < 0.3*r.PackingBound || float64(r.MinL) > 6*r.PackingBound {
		t.Fatalf("MinL %d far from N/√p = %.0f", r.MinL, r.PackingBound)
	}
}

func TestBoundsFormulae(t *testing.T) {
	a := squareAnalysis(t)
	n := 1000
	in := workload.ProvableHard(a.Query, a.Witness, n, 1)
	r := MinLoad(a, in, 8, 1<<62) // unreachable OUT: MinL saturates at N
	if r.MinL != in.N() {
		t.Fatalf("MinL should saturate at N, got %d", r.MinL)
	}
	wantPack := float64(in.N()) / math.Pow(8, 1.0/3)
	if math.Abs(r.PackingBound-wantPack) > 1e-9 {
		t.Fatalf("packing bound %.2f, want %.2f", r.PackingBound, wantPack)
	}
	wantCover := float64(in.N()) / math.Pow(8, 1.0/2)
	if math.Abs(r.CoverBound-wantCover) > 1e-9 {
		t.Fatalf("cover bound %.2f, want %.2f", r.CoverBound, wantCover)
	}
}
