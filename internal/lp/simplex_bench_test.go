package lp

import (
	"math/big"
	"testing"
)

// cycleCover builds the fractional edge-cover LP of the k-cycle (k
// odd): one variable per edge, one GE row per vertex (the two incident
// edges must cover it). For odd k the optimum k/2 is only reached
// fractionally — the same half-integral shape as the hypergraph LPs the
// rest of the repository solves (Lemma 5.3), but scalable, and its GE
// rows force a phase-1 pass so the benchmark exercises both phases'
// pivot loops.
func cycleCover(k int) *Problem {
	p := NewProblem(k, false)
	for i := 0; i < k; i++ {
		p.SetObjective(i, Int(1))
	}
	for v := 0; v < k; v++ {
		coeffs := make([]int64, k)
		coeffs[v] = 1
		coeffs[(v+k-1)%k] = 1
		p.AddDense(coeffs, GE, 1)
	}
	return p
}

func checkCycleCover(tb testing.TB, sol *Solution, k int) {
	tb.Helper()
	if sol.Status != Optimal {
		tb.Fatalf("status = %v", sol.Status)
	}
	if want := big.NewRat(int64(k), 2); sol.Value.Cmp(want) != 0 {
		tb.Fatalf("value = %v, want %v", sol.Value, want)
	}
	// Feasibility: every vertex covered by its two incident edges.
	for v := 0; v < k; v++ {
		sum := new(big.Rat).Add(sol.X[v], sol.X[(v+k-1)%k])
		if sum.Cmp(big.NewRat(1, 1)) < 0 {
			tb.Fatalf("vertex %d uncovered: %v", v, sum)
		}
	}
}

// benchTableaus runs one problem through each tableau, outside the
// memo: "int" is what Solve runs (integer image, integer tableau,
// Solution), "rat" the rational reference.
func benchTableaus(b *testing.B, p *Problem, check func(*Solution)) {
	b.Run("int", func(b *testing.B) {
		w := new(workspace)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := w.solve(p, w.integerize(p))
			if err != nil {
				b.Fatal(err)
			}
			check(sol)
		}
	})
	b.Run("rat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sol, err := solve(p)
			if err != nil {
				b.Fatal(err)
			}
			check(sol)
		}
	})
}

// BenchmarkSolveCycleCover: the half-integral, phase-1-heavy family at
// three sizes. The rational tableau spends its time and ~4400 allocs
// (9-cycle) in math/big gcd normalization; the integer tableau
// allocates its Solution.
func BenchmarkSolveCycleCover(b *testing.B) {
	for _, k := range []int{5, 9, 17} {
		b.Run(itoa(k), func(b *testing.B) {
			benchTableaus(b, cycleCover(k), func(sol *Solution) { checkCycleCover(b, sol, k) })
		})
	}
}

// BenchmarkSolveCatalog: the edge cover and edge packing LPs of the
// catalog's two largest queries, the programs every Analyze solves.
func BenchmarkSolveCatalog(b *testing.B) {
	lps := catalogLPs()
	for _, name := range []string{"figure4/cover", "figure4/packing", "spoke-5/cover", "spoke-5/packing"} {
		p := lps[name]
		if p == nil {
			b.Fatalf("no catalog LP %q", name)
		}
		b.Run(name, func(b *testing.B) {
			benchTableaus(b, p, func(sol *Solution) {
				if sol.Status != Optimal {
					b.Fatalf("status = %v", sol.Status)
				}
			})
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestScratchReuseIdenticalSolutions pins that the scratch-reusing
// solver returns exactly the solutions of the specification: repeated
// solves of the same problem are bit-identical (no scratch state leaks
// between solves), and the returned Rats are freshly owned (mutating a
// solution does not corrupt later solves).
func TestScratchReuseIdenticalSolutions(t *testing.T) {
	p := cycleCover(9)
	first := mustSolve(t, p)
	checkCycleCover(t, first, 9)
	second := mustSolve(t, p)
	if first.Value.Cmp(second.Value) != 0 {
		t.Fatalf("values differ across solves: %v vs %v", first.Value, second.Value)
	}
	for j := range first.X {
		if first.X[j].Cmp(second.X[j]) != 0 {
			t.Fatalf("X[%d] differs across solves: %v vs %v", j, first.X[j], second.X[j])
		}
	}
	for i := range first.Dual {
		if first.Dual[i].Cmp(second.Dual[i]) != 0 {
			t.Fatalf("Dual[%d] differs across solves: %v vs %v", i, first.Dual[i], second.Dual[i])
		}
	}
	// Ownership: clobbering the first solution must not affect a third.
	first.Value.SetInt64(-999)
	for _, x := range first.X {
		x.SetInt64(-999)
	}
	third := mustSolve(t, p)
	checkCycleCover(t, third, 9)
}

// TestSolveAllocsBounded pins the allocation ceiling of one rational
// solve so its scratch hoisting cannot silently regress: the
// pre-hoisting solver spent ~6150 allocs on this problem, the hoisted
// one ~4350. (The integer tableau's ceiling is pinned by
// TestIntPathAllocatesOnlyItsSolution.)
func TestSolveAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting")
	}
	p := cycleCover(9)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := solve(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5500 {
		t.Fatalf("solve allocated %.0f objects; scratch hoisting should keep it under 5500", allocs)
	}
}
