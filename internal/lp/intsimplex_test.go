package lp

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"coverpack/internal/hypergraph"
)

// solveInt runs p through the integer tableau only. ok is false when p
// has no int64 image or a pivot overflowed — the cases Solve hands to
// the rational tableau.
func solveInt(p *Problem) (sol *Solution, ok bool) {
	w := new(workspace)
	if !w.integerize(p) {
		return nil, false
	}
	st, ok := w.tab.solve(&w.ip)
	if !ok {
		return nil, false
	}
	if st != Optimal {
		return &Solution{Status: st}, true
	}
	return w.tab.solution(&w.ip)
}

// sameSolution requires the two solutions to agree field by field, as
// normalized rationals.
func sameSolution(t testing.TB, what string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", what, got.Status, want.Status)
	}
	if want.Status != Optimal {
		if got.Value != nil || got.X != nil || got.Dual != nil {
			t.Fatalf("%s: %v solution carries values", what, got.Status)
		}
		return
	}
	if got.Value.RatString() != want.Value.RatString() {
		t.Fatalf("%s: value %s, want %s", what, got.Value.RatString(), want.Value.RatString())
	}
	same := func(field string, g, w []*big.Rat) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %d %s entries, want %d", what, len(g), field, len(w))
		}
		for i := range w {
			if g[i].RatString() != w[i].RatString() {
				t.Fatalf("%s: %s[%d] = %s, want %s", what, field, i, g[i].RatString(), w[i].RatString())
			}
		}
	}
	same("X", got.X, want.X)
	same("Dual", got.Dual, want.Dual)
}

// requireIntMatchesRat solves p with both tableaus and with Solve and
// requires one answer.
func requireIntMatchesRat(t testing.TB, p *Problem) {
	t.Helper()
	want, err := solve(p)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := solveInt(p)
	if !ok {
		t.Fatal("integer tableau gave up on a small problem")
	}
	sameSolution(t, "integer tableau", got, want)
	pub, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "Solve", pub, want)
}

// fuzzProblem decodes a small LP from fuzz bytes: up to 4 variables
// and 6 rows, all three senses, coefficients in [−3,3] over
// denominators 1, 2 or 3, right-hand sides in [−4,6].
func fuzzProblem(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, m := 1+next()%4, 1+next()%6
	p := NewProblem(n, next()%2 == 0)
	coeff := func() *big.Rat {
		b := next()
		return big.NewRat(int64(b%7)-3, int64(1+b/7%3))
	}
	for j := 0; j < n; j++ {
		p.SetObjective(j, coeff())
	}
	for i := 0; i < m; i++ {
		row := make([]*big.Rat, n)
		for j := range row {
			row[j] = coeff()
		}
		b := next()
		p.AddConstraint(row, Sense(b%3), big.NewRat(int64(b/3%11)-4, int64(1+b/33%2)))
	}
	return p
}

func FuzzSolveIntVsRat(f *testing.F) {
	// n=2, m=3, max; bytes are (n-1, m-1, direction, objective…, rows…).
	f.Add([]byte{1, 2, 0, 4, 4, 4, 3, 15, 3, 4, 18, 4, 4, 21})           // bounded LE
	f.Add([]byte{1, 1, 0, 4, 4, 4, 4, 2, 4, 4, 1})                       // negative right-hand sides
	f.Add([]byte{1, 3, 1, 4, 5, 4, 2, 16, 4, 2, 16, 5, 1, 19, 2, 4, 13}) // redundant EQ rows: an artificial stays basic at zero
	f.Add([]byte{2, 3, 0, 4, 4, 4, 4, 3, 3, 12, 3, 4, 3, 12, 3, 3, 4, 12, 4, 4, 4, 12})
	f.Add([]byte{0, 1, 0, 4, 4, 17, 4, 12})                          // infeasible: x ≥ 1, x ≤ 0
	f.Add([]byte{1, 0, 0, 4, 4, 4, 2, 15})                           // unbounded
	f.Add([]byte{1, 2, 1, 11, 18, 11, 4, 49, 4, 18, 50, 12, 12, 17}) // fractional coefficients, GE rows
	f.Add([]byte{3, 5, 0, 6, 5, 4, 3, 1, 2, 3, 4, 5, 6, 0, 13, 12, 11, 10, 9, 1, 2, 2, 2, 2, 23, 5, 5, 5, 5, 40, 6, 0, 6, 0, 31, 1, 6, 1, 6, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireIntMatchesRat(t, fuzzProblem(data))
	})
}

// TestIntMatchesRatHandPicked covers the shapes the fuzz seeds name,
// spelled out.
func TestIntMatchesRatHandPicked(t *testing.T) {
	build := func(n int, maximize bool, obj []int64, rows ...func(*Problem)) *Problem {
		p := NewProblem(n, maximize)
		for j, c := range obj {
			p.SetObjective(j, Int(c))
		}
		for _, r := range rows {
			r(p)
		}
		return p
	}
	row := func(s Sense, rhs int64, coeffs ...int64) func(*Problem) {
		return func(p *Problem) { p.AddDense(coeffs, s, rhs) }
	}
	for name, p := range map[string]*Problem{
		"negative rhs, all senses": build(2, true, []int64{1, 2},
			row(GE, -4, -1, -1), row(LE, -1, -1, 0), row(EQ, -2, 0, -1)),
		// The three EQ rows have rank one: two artificials stay basic at
		// zero after phase 1 and evictArtificials has nothing (or only a
		// negative entry) to pivot on.
		"redundant EQ rows": build(2, false, []int64{1, 1},
			row(EQ, 0, 1, -1), row(EQ, 0, -1, 1), row(EQ, 0, 2, -2), row(GE, 2, 1, 1)),
		"evict on a negative entry": build(3, true, []int64{1, 0, 0},
			row(EQ, 0, 0, -1, 1), row(EQ, 0, 0, -2, 2), row(LE, 3, 1, 1, 0)),
		"degenerate ties": build(3, true, []int64{1, 1, 1},
			row(LE, 0, 1, -1, 0), row(LE, 0, 0, 1, -1), row(LE, 0, -1, 0, 1), row(LE, 1, 1, 1, 1), row(LE, 1, 1, 1, 1)),
		"infeasible":     build(2, true, []int64{1, 1}, row(GE, 3, 1, 1), row(LE, 1, 1, 0), row(LE, 1, 0, 1)),
		"unbounded":      build(2, true, []int64{1, 1}, row(GE, 1, 1, -1)),
		"zero objective": build(2, true, []int64{0, 0}, row(LE, 1, 1, 1)),
	} {
		t.Run(name, func(t *testing.T) { requireIntMatchesRat(t, p) })
	}
}

// TestDispatchScalesFractions: rows and objectives with denominators
// are carried as integers over common denominators, not sent to the
// rational tableau, and every field — duals included — comes back
// unscaled.
func TestDispatchScalesFractions(t *testing.T) {
	t.Run("halves and thirds", func(t *testing.T) {
		p := NewProblem(3, true)
		p.SetObjective(0, Rat(1, 2))
		p.SetObjective(1, Rat(2, 3))
		p.SetObjective(2, Int(1))
		p.AddConstraint([]*big.Rat{Rat(1, 2), Rat(2, 3), Int(1)}, LE, Rat(5, 2))
		p.AddConstraint([]*big.Rat{Rat(2, 3), Int(1), Rat(1, 2)}, LE, Int(2))
		p.AddConstraint([]*big.Rat{Int(1), Rat(1, 2), Rat(2, 3)}, GE, Rat(1, 3))
		w := new(workspace)
		if !w.integerize(p) || w.ip.den != 6*6*6 || w.ip.objDen != 6 {
			t.Fatalf("integerize: den %d objDen %d", w.ip.den, w.ip.objDen)
		}
		requireIntMatchesRat(t, p)
	})
	t.Run("AGM objective on the 2^-20 grid", func(t *testing.T) {
		// The weighted cover LP of the triangle, sizes 1000, 37, 5·10⁵.
		p := NewProblem(3, false)
		for e, size := range []float64{1000, 37, 500000} {
			p.SetObjective(e, new(big.Rat).SetFloat64(math.Round(math.Log2(size)*(1<<20))/(1<<20)))
		}
		p.AddDense([]int64{1, 0, 1}, GE, 1)
		p.AddDense([]int64{1, 1, 0}, GE, 1)
		p.AddDense([]int64{0, 1, 1}, GE, 1)
		w := new(workspace)
		if !w.integerize(p) || w.ip.den != 1 || w.ip.objDen <= 1 {
			t.Fatalf("integerize: den %d objDen %d", w.ip.den, w.ip.objDen)
		}
		requireIntMatchesRat(t, p)
	})
	t.Run("witness LP with half-integral tau", func(t *testing.T) {
		// solveWitness's program on the 5-cycle with E' = ∅ and τ* = 5/2.
		const n = 5
		p := NewProblem(n+1, true)
		p.SetObjective(n, Int(1))
		row := make([]int64, n+1)
		for e := 0; e < n; e++ {
			clear(row)
			row[e], row[(e+1)%n] = 1, 1
			p.AddDense(row, EQ, 1)
		}
		for i := range row {
			row[i] = 1
		}
		row[n] = 0
		p.AddDenseRat(row, EQ, Rat(5, 2))
		clear(row)
		row[n] = 1
		for i := 0; i < n; i++ {
			row[i] = 1
			p.AddDense(row, LE, 1)
			row[i] = 0
		}
		requireIntMatchesRat(t, p)
		sol := mustSolve(t, p)
		ratEq(t, sol.Value, 1, 2, "epsilon")
	})
}

// TestDispatchFallsBack: problems the integer tableau cannot finish
// are re-solved, exactly, by the rational one.
func TestDispatchFallsBack(t *testing.T) {
	check := func(t *testing.T, p *Problem, wantImage bool) {
		t.Helper()
		if got := new(workspace).integerize(p); got != wantImage {
			t.Fatalf("integerize = %v, want %v", got, wantImage)
		}
		if _, ok := solveInt(p); ok {
			t.Fatal("integer tableau claims to have solved it")
		}
		want, err := solve(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, "Solve", got, want)
		if want.Status != Optimal {
			t.Fatalf("reference status %v", want.Status)
		}
	}
	t.Run("overflow mid-pivot", func(t *testing.T) {
		const big40 = 1 << 40
		p := NewProblem(2, true)
		p.SetObjective(0, Int(1))
		p.SetObjective(1, Int(1))
		p.AddDense([]int64{big40 + 1, big40 - 1}, LE, big40)
		p.AddDense([]int64{big40 - 3, big40 + 5}, LE, big40+7)
		check(t, p, true)
	})
	t.Run("coefficient beyond int64", func(t *testing.T) {
		huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))
		p := NewProblem(1, true)
		p.SetObjective(0, Int(1))
		p.AddConstraint([]*big.Rat{huge}, LE, huge)
		check(t, p, false)
	})
	t.Run("denominators whose product overflows", func(t *testing.T) {
		p := NewProblem(1, true)
		p.SetObjective(0, Int(1))
		for i := 0; i < 3; i++ {
			p.AddConstraint([]*big.Rat{Rat(1, 1<<30+int64(2*i+1))}, LE, Int(1))
		}
		check(t, p, false)
	})
	t.Run("-2^63", func(t *testing.T) {
		p := NewProblem(1, false)
		p.SetObjective(0, Int(1))
		p.AddDense([]int64{math.MinInt64}, LE, -1)
		check(t, p, false)
	})
}

func TestIntProblemValue(t *testing.T) {
	before := Memo()
	// Triangle packing: 3/2.
	p := &IntProblem{NumVars: 3, Maximize: true, Objective: []int64{1, 1, 1},
		Coeffs: []int64{1, 0, 1, 1, 1, 0, 0, 1, 1}, Sense: []Sense{LE, LE, LE}, RHS: []int64{1, 1, 1}}
	v := new(big.Rat)
	if st, err := p.Value(v); err != nil || st != Optimal {
		t.Fatalf("status %v, err %v", st, err)
	}
	ratEq(t, v, 3, 2, "triangle packing")
	after := Memo()
	if after.SimplexRuns != before.SimplexRuns+1 || after.Entries != before.Entries ||
		after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("Value must count one simplex run and leave the memo alone: %+v -> %+v", before, after)
	}

	p.Sense[0], p.RHS[0] = GE, 5 // x0 + x2 ≥ 5 against x0 + x1 ≤ 1, x1 + x2 ≤ 1
	if st, err := p.Value(v); err != nil || st != Infeasible {
		t.Fatalf("status %v, err %v; want infeasible", st, err)
	}
	p.Sense = []Sense{GE, GE, GE}
	if st, err := p.Value(v); err != nil || st != Unbounded {
		t.Fatalf("status %v, err %v; want unbounded", st, err)
	}

	// Overflow: the fallback still delivers the value.
	const big40 = 1 << 40
	q := &IntProblem{NumVars: 2, Maximize: true, Objective: []int64{1, 1},
		Coeffs: []int64{big40 + 1, big40 - 1, big40 - 3, big40 + 5}, Sense: []Sense{LE, LE}, RHS: []int64{big40, big40 + 7}}
	want, err := solve(q.problem())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := q.Value(v); err != nil || st != Optimal || v.Cmp(want.Value) != 0 {
		t.Fatalf("value %v (status %v, err %v), want %v", v, st, err, want.Value)
	}

	// −2⁶³ cannot be negated: the tableau declines it at load.
	q = &IntProblem{NumVars: 1, Objective: []int64{1},
		Coeffs: []int64{math.MinInt64}, Sense: []Sense{LE}, RHS: []int64{-1}}
	if st, err := q.Value(v); err != nil || st != Optimal || v.Cmp(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 63))) != 0 {
		t.Fatalf("value %v (status %v, err %v), want 2^-63", v, st, err)
	}

	if _, err := (&IntProblem{NumVars: 2, Objective: []int64{1}}).Value(v); err == nil {
		t.Fatal("expected error for short objective")
	}
	if _, err := (&IntProblem{NumVars: 1, Objective: []int64{1}, Sense: []Sense{LE}, RHS: []int64{1}}).Value(v); err == nil {
		t.Fatal("expected error for missing coefficients")
	}
}

// TestMemoKeysInjective: the integer and rational keys never collide,
// and the integer key tells apart problems that differ only in shape
// or denominators.
func TestMemoKeysInjective(t *testing.T) {
	keys := map[string]string{}
	add := func(name string, p *Problem) {
		t.Helper()
		w := new(workspace)
		var k string
		if w.integerize(p) {
			k = string(intKey(nil, &w.ip))
		} else {
			k = string(ratKey(nil, p))
		}
		if prev, dup := keys[k]; dup {
			t.Fatalf("%s and %s share a memo key", prev, name)
		}
		keys[k] = name
	}
	mk := func(n int, maximize bool, rows ...[]*big.Rat) *Problem {
		p := NewProblem(n, maximize)
		for _, r := range rows {
			p.AddConstraint(r[:n], LE, r[n])
		}
		return p
	}
	add("1 var, rows (1|1) (1|1)", mk(1, true, []*big.Rat{Int(1), Int(1)}, []*big.Rat{Int(1), Int(1)}))
	add("2 vars, row (1 1|1)", mk(2, true, []*big.Rat{Int(1), Int(1), Int(1)}))
	add("same, minimized", mk(2, false, []*big.Rat{Int(1), Int(1), Int(1)}))
	add("halves", mk(2, true, []*big.Rat{Rat(1, 2), Rat(1, 2), Rat(1, 2)}))
	add("quarters", mk(2, true, []*big.Rat{Rat(1, 4), Rat(1, 4), Rat(1, 4)}))
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))
	add("no image", mk(1, true, []*big.Rat{huge, huge}))
}

// catalogLPs returns the edge cover (min, GE) and edge packing (max,
// LE) programs of every catalog query, built the way
// fractional.edgeProblem builds them.
func catalogLPs() map[string]*Problem {
	out := map[string]*Problem{}
	for _, ce := range hypergraph.Catalog() {
		q := ce.Query
		for _, kind := range []struct {
			name     string
			maximize bool
			sense    Sense
		}{{"cover", false, GE}, {"packing", true, LE}} {
			m := q.NumEdges()
			p := NewProblem(m, kind.maximize)
			coeffs := make([]int64, m)
			for e := 0; e < m; e++ {
				p.SetObjective(e, Int(1))
			}
			for _, a := range q.AllVars().Attrs() {
				for e := 0; e < m; e++ {
					coeffs[e] = 0
					if q.EdgeVars(e).Contains(a) {
						coeffs[e] = 1
					}
				}
				p.AddDense(coeffs, kind.sense, 1)
			}
			out[q.Name()+"/"+kind.name] = p
		}
	}
	return out
}

func TestIntMatchesRatCatalog(t *testing.T) {
	for name, p := range catalogLPs() {
		t.Run(name, func(t *testing.T) { requireIntMatchesRat(t, p) })
	}
}

// TestSolveConcurrent: sweep cells call Solve at once; the pooled
// workspaces must not leak state between them (run under -race).
func TestSolveConcurrent(t *testing.T) {
	lps := catalogLPs()
	want := map[string]*Solution{}
	for name, p := range lps {
		sol, err := solve(p)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = sol
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(memo bool) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for name, p := range lps {
					got, err := Solve(p)
					if err != nil {
						t.Error(err)
						return
					}
					if got.Value.Cmp(want[name].Value) != 0 {
						t.Errorf("%s: value %v, want %v", name, got.Value, want[name].Value)
					}
					for j := range got.X {
						if got.X[j].Cmp(want[name].X[j]) != 0 {
							t.Errorf("%s: X[%d] = %v, want %v", name, j, got.X[j], want[name].X[j])
						}
					}
				}
				if memo {
					ResetMemo() // forces the other goroutines back onto the tableau
				}
			}
		}(g == 0)
	}
	wg.Wait()
}

// TestIntPathAllocatesOnlyItsSolution: on the integer path, figure4's
// 11×8 packing LP allocates no more than a copy of the Solution it
// returns — the tableau, the integer image and the key live in a
// pooled workspace.
func TestIntPathAllocatesOnlyItsSolution(t *testing.T) {
	p := catalogLPs()["figure4/packing"]
	if p == nil || p.NumVars != 8 || len(p.Constraints) != 11 {
		t.Fatalf("figure4 packing LP is not 11×8: %+v", p)
	}
	SetMemo(false)
	defer SetMemo(true)
	sol := mustSolve(t, p) // also warms the workspace pool
	solveAllocs := testing.AllocsPerRun(50, func() {
		if _, err := Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	cloneAllocs := testing.AllocsPerRun(50, func() { _ = sol.clone() })
	if solveAllocs > cloneAllocs {
		t.Fatalf("Solve allocates %.0f objects, a copy of its Solution %.0f", solveAllocs, cloneAllocs)
	}
	t.Logf("Solve %.0f allocs, Solution copy %.0f", solveAllocs, cloneAllocs)
}
