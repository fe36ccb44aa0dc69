package lp

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func ratEq(t *testing.T, got *big.Rat, a, b int64, what string) {
	t.Helper()
	want := big.NewRat(a, b)
	if got == nil {
		t.Fatalf("%s: got nil, want %v", what, want)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
}

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func TestMaximizeSimple(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6.
	p := NewProblem(2, true)
	p.SetObjective(0, Int(3))
	p.SetObjective(1, Int(2))
	p.AddDense([]int64{1, 1}, LE, 4)
	p.AddDense([]int64{1, 3}, LE, 6)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	ratEq(t, sol.Value, 12, 1, "value")
	ratEq(t, sol.X[0], 4, 1, "x")
	ratEq(t, sol.X[1], 0, 1, "y")
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2.
	p := NewProblem(2, false)
	p.SetObjective(0, Int(2))
	p.SetObjective(1, Int(3))
	p.AddDense([]int64{1, 1}, GE, 10)
	p.AddDense([]int64{1, 0}, GE, 2)
	sol := mustSolve(t, p)
	ratEq(t, sol.Value, 20, 1, "value")
	ratEq(t, sol.X[0], 10, 1, "x")
}

func TestEquality(t *testing.T) {
	// max x + y s.t. x + 2y = 4, x <= 2.
	p := NewProblem(2, true)
	p.SetObjective(0, Int(1))
	p.SetObjective(1, Int(1))
	p.AddDense([]int64{1, 2}, EQ, 4)
	p.AddDense([]int64{1, 0}, LE, 2)
	sol := mustSolve(t, p)
	ratEq(t, sol.Value, 3, 1, "value") // x=2, y=1
	ratEq(t, sol.X[0], 2, 1, "x")
	ratEq(t, sol.X[1], 1, 1, "y")
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1, true)
	p.SetObjective(0, Int(1))
	p.AddDense([]int64{1}, LE, 1)
	p.AddDense([]int64{1}, GE, 2)
	sol := mustSolve(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2, true)
	p.SetObjective(0, Int(1))
	p.AddDense([]int64{0, 1}, LE, 1)
	sol := mustSolve(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// max -x s.t. -x <= -3  (i.e. x >= 3): optimum -3.
	p := NewProblem(1, true)
	p.SetObjective(0, Int(-1))
	p.AddDense([]int64{-1}, LE, -3)
	sol := mustSolve(t, p)
	ratEq(t, sol.Value, -3, 1, "value")
	ratEq(t, sol.X[0], 3, 1, "x")
}

func TestFractionalOptimum(t *testing.T) {
	// The triangle query's edge cover: min f1+f2+f3 with each pair
	// covering each vertex: fi + fj >= 1 for the three pairs. The
	// optimum is the half-integral 3/2.
	p := NewProblem(3, false)
	for i := 0; i < 3; i++ {
		p.SetObjective(i, Int(1))
	}
	p.AddDense([]int64{1, 1, 0}, GE, 1)
	p.AddDense([]int64{0, 1, 1}, GE, 1)
	p.AddDense([]int64{1, 0, 1}, GE, 1)
	sol := mustSolve(t, p)
	ratEq(t, sol.Value, 3, 2, "triangle cover")
	for i, x := range sol.X {
		ratEq(t, x, 1, 2, "f"+string(rune('1'+i)))
	}
}

func TestDualOfPacking(t *testing.T) {
	// max f1+f2 s.t. f1 <= 1, f2 <= 1, f1+f2 <= 1 (shared vertex).
	// Optimum 1; the dual of the binding shared-vertex row must be 1.
	p := NewProblem(2, true)
	p.SetObjective(0, Int(1))
	p.SetObjective(1, Int(1))
	p.AddDense([]int64{1, 0}, LE, 1)
	p.AddDense([]int64{0, 1}, LE, 1)
	p.AddDense([]int64{1, 1}, LE, 1)
	sol := mustSolve(t, p)
	ratEq(t, sol.Value, 1, 1, "value")
	ratEq(t, sol.Dual[2], 1, 1, "dual of shared vertex")
	// Complementary slackness: dual objective equals primal objective.
	dv := new(big.Rat)
	for i, y := range sol.Dual {
		_ = i
		dv.Add(dv, y)
	}
	if dv.Cmp(sol.Value) != 0 {
		t.Fatalf("dual value %v != primal value %v", dv, sol.Value)
	}
}

func TestDualOfCovering(t *testing.T) {
	// min x1+x2+x3 s.t. all three GE rows of the triangle cover above.
	// Strong duality: sum of duals times RHS equals 3/2.
	p := NewProblem(3, false)
	for i := 0; i < 3; i++ {
		p.SetObjective(i, Int(1))
	}
	p.AddDense([]int64{1, 1, 0}, GE, 1)
	p.AddDense([]int64{0, 1, 1}, GE, 1)
	p.AddDense([]int64{1, 0, 1}, GE, 1)
	sol := mustSolve(t, p)
	dv := new(big.Rat)
	for _, y := range sol.Dual {
		if y.Sign() < 0 {
			t.Fatalf("covering dual %v negative", y)
		}
		dv.Add(dv, y)
	}
	ratEq(t, dv, 3, 2, "dual value")
}

func TestDegenerateNoCycle(t *testing.T) {
	// A classic degenerate LP; Bland's rule must terminate.
	p := NewProblem(4, true)
	p.SetObjective(0, Rat(3, 4))
	p.SetObjective(1, Int(-150))
	p.SetObjective(2, Rat(1, 50))
	p.SetObjective(3, Int(-6))
	c1 := []*big.Rat{Rat(1, 4), Int(-60), Rat(-1, 25), Int(9)}
	p.AddConstraint(c1, LE, Int(0))
	c2 := []*big.Rat{Rat(1, 2), Int(-90), Rat(-1, 50), Int(3)}
	p.AddConstraint(c2, LE, Int(0))
	c3 := []*big.Rat{Int(0), Int(0), Int(1), Int(0)}
	p.AddConstraint(c3, LE, Int(1))
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	ratEq(t, sol.Value, 1, 20, "Beale optimum")
}

func TestRedundantConstraint(t *testing.T) {
	// x + y = 2 stated twice; must still solve.
	p := NewProblem(2, true)
	p.SetObjective(0, Int(1))
	p.AddDense([]int64{1, 1}, EQ, 2)
	p.AddDense([]int64{1, 1}, EQ, 2)
	sol := mustSolve(t, p)
	ratEq(t, sol.Value, 2, 1, "value")
}

func TestZeroObjective(t *testing.T) {
	// Pure feasibility problem.
	p := NewProblem(2, true)
	p.AddDense([]int64{1, 1}, GE, 1)
	p.AddDense([]int64{1, 1}, LE, 3)
	sol := mustSolve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	ratEq(t, sol.Value, 0, 1, "value")
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(&Problem{NumVars: 0}); err == nil {
		t.Fatal("expected error for zero variables")
	}
	p := NewProblem(2, true)
	p.Constraints = append(p.Constraints, Constraint{Coeffs: []*big.Rat{Int(1)}, Sense: LE, RHS: Int(1)})
	if _, err := Solve(p); err == nil {
		t.Fatal("expected error for short constraint row")
	}
}

// TestPropertyFeasibilityAndOptimality generates random small LPs with
// known feasible points and checks that (a) the solver never reports
// infeasible when a feasible point was planted, (b) the returned optimum
// is at least as good as the planted point, and (c) the returned X
// satisfies every constraint exactly.
func TestPropertyFeasibilityAndOptimality(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(20210704)),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(5)
		// Plant a feasible point with nonnegative small integer coords.
		pt := make([]int64, n)
		for i := range pt {
			pt[i] = int64(rng.Intn(5))
		}
		p := NewProblem(n, true)
		for j := 0; j < n; j++ {
			p.SetObjective(j, Int(int64(rng.Intn(7)-3)))
		}
		// Add LE constraints that the planted point satisfies, plus a
		// box to keep the LP bounded.
		for i := 0; i < m; i++ {
			coeffs := make([]int64, n)
			var lhs int64
			for j := 0; j < n; j++ {
				coeffs[j] = int64(rng.Intn(5) - 1)
				lhs += coeffs[j] * pt[j]
			}
			p.AddDense(coeffs, LE, lhs+int64(rng.Intn(4)))
		}
		box := make([]int64, n)
		for j := range box {
			box[j] = 1
		}
		p.AddDense(box, LE, 100)

		sol, err := Solve(p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if sol.Status == Infeasible {
			t.Logf("seed %d: reported infeasible with planted point", seed)
			return false
		}
		if sol.Status != Optimal {
			return true // bounded by box, should not happen, but not a soundness bug here
		}
		// Optimum >= planted objective.
		planted := new(big.Rat)
		for j := 0; j < n; j++ {
			term := new(big.Rat).Mul(p.Objective[j], Int(pt[j]))
			planted.Add(planted, term)
		}
		if sol.Value.Cmp(planted) < 0 {
			t.Logf("seed %d: optimum %v below planted %v", seed, sol.Value, planted)
			return false
		}
		// Returned X feasible.
		for _, c := range p.Constraints {
			lhs := new(big.Rat)
			for j := 0; j < n; j++ {
				term := new(big.Rat).Mul(c.Coeffs[j], sol.X[j])
				lhs.Add(lhs, term)
			}
			if lhs.Cmp(c.RHS) > 0 {
				t.Logf("seed %d: X violates constraint (%v > %v)", seed, lhs, c.RHS)
				return false
			}
		}
		for j := 0; j < n; j++ {
			if sol.X[j].Sign() < 0 {
				t.Logf("seed %d: negative variable", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStrongDuality checks cB duality: for random bounded feasible
// max problems with LE rows and nonnegative RHS, dual·b == optimum.
func TestPropertyStrongDuality(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(42)),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		p := NewProblem(n, true)
		for j := 0; j < n; j++ {
			p.SetObjective(j, Int(int64(rng.Intn(5))))
		}
		for i := 0; i < m; i++ {
			coeffs := make([]int64, n)
			for j := range coeffs {
				coeffs[j] = int64(rng.Intn(4))
			}
			p.AddDense(coeffs, LE, int64(1+rng.Intn(9)))
		}
		box := make([]int64, n)
		for j := range box {
			box[j] = 1
		}
		p.AddDense(box, LE, 50)
		sol, err := Solve(p)
		if err != nil || sol.Status != Optimal {
			t.Logf("seed %d: err=%v status=%v", seed, err, sol.Status)
			return false
		}
		dv := new(big.Rat)
		for i, y := range sol.Dual {
			if y.Sign() < 0 {
				t.Logf("seed %d: negative dual for LE max problem", seed)
				return false
			}
			term := new(big.Rat).Mul(y, p.Constraints[i].RHS)
			dv.Add(dv, term)
		}
		if dv.Cmp(sol.Value) != 0 {
			t.Logf("seed %d: dual %v != primal %v", seed, dv, sol.Value)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Fatal("sense strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Fatal("status strings wrong")
	}
}

func TestCloneRats(t *testing.T) {
	xs := []*big.Rat{Int(1), Rat(2, 3)}
	ys := cloneRats(xs)
	ys[0].SetInt64(9)
	if xs[0].Cmp(Int(1)) != 0 {
		t.Fatal("cloneRats aliases memory")
	}
}

// Rat is a convenience constructor for an exact rational a/b.
func Rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

// cloneRats returns a deep copy of a rational slice.
func cloneRats(xs []*big.Rat) []*big.Rat {
	out := make([]*big.Rat, len(xs))
	for i, x := range xs {
		out[i] = new(big.Rat).Set(x)
	}
	return out
}
