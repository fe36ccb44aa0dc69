package coverpack_test

import (
	"math/big"
	"testing"

	"coverpack"
	"coverpack/internal/hypergraph"
)

// TestAnalyzeMemoized pins the Analyze memoization contract: the first
// analysis of a shape is a miss, every repeat — same pointer, same
// text, or a pure renaming — is a hit returning the one shared
// immutable *Analysis, and mutation goes through Clone.
func TestAnalyzeMemoized(t *testing.T) {
	coverpack.ResetPlanCompileCache()
	coverpack.ResetAnalyzeCache()
	defer coverpack.ResetPlanCompileCache()
	defer coverpack.ResetAnalyzeCache()
	q := hypergraph.Line3Join()

	first, err := coverpack.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := coverpack.AnalyzeCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("after first analyze: hits=%d misses=%d, want 0/1", hits, misses)
	}

	// Repeats of the same *Query hit the shape entry's analysis slot
	// and return the shared entry itself.
	for i := 0; i < 3; i++ {
		again, err := coverpack.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("repeat analyze returned a different *Analysis (%p vs %p)", again, first)
		}
	}
	if hits, misses := coverpack.AnalyzeCacheStats(); hits != 3 || misses != 1 {
		t.Fatalf("after repeats: hits=%d misses=%d, want 3/1", hits, misses)
	}

	// A structurally identical query parsed separately hits the same
	// shape entry (the key is the hypergraph's identity, not the
	// pointer) and shares the same Analysis.
	dup := hypergraph.MustParse(q.Name(), q.String())
	a, err := coverpack.Analyze(dup)
	if err != nil {
		t.Fatal(err)
	}
	if a != first {
		t.Fatal("separately parsed identical query got a different *Analysis")
	}
	if hits, _ := coverpack.AnalyzeCacheStats(); hits != 4 {
		t.Fatalf("separately parsed identical query missed the cache (hits=%d)", hits)
	}

	// A pure renaming — different relation and attribute names, same
	// edge structure — shares the entry, and the shape cache records the
	// hit.
	before := coverpack.PlanCompileCacheStats()
	ren := hypergraph.MustParse("line3-renamed", "S1(X,Y) S2(Y,Z) S3(Z,W)")
	b, err := coverpack.Analyze(ren)
	if err != nil {
		t.Fatal(err)
	}
	if b != first {
		t.Fatal("renamed query got a different *Analysis")
	}
	if ps := coverpack.PlanCompileCacheStats(); ps.Hits != before.Hits+1 || ps.Misses != before.Misses {
		t.Fatalf("renamed query's hit not recorded: %+v -> %+v", before, ps)
	}

	// A different shape is its own miss.
	if _, err := coverpack.Analyze(hypergraph.TriangleJoin()); err != nil {
		t.Fatal(err)
	}
	if _, misses := coverpack.AnalyzeCacheStats(); misses != 2 {
		t.Fatalf("after second query: misses=%d, want 2", misses)
	}

	// The shared Analysis is immutable by contract; Clone returns a
	// deep private copy, so mutating it never corrupts the cache.
	mine := first.Clone()
	mine.Rho.SetInt64(-7)
	clean, err := coverpack.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if clean != first {
		t.Fatal("re-fetch after Clone returned a different *Analysis")
	}
	if clean.Rho.Cmp(big.NewRat(-7, 1)) == 0 {
		t.Fatal("mutating a Clone corrupted the cache")
	}

	coverpack.ResetAnalyzeCache()
	if hits, misses := coverpack.AnalyzeCacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("reset left counters at %d/%d", hits, misses)
	}
}

// TestAnalyzeSeesQueryMutation: Query.AddEdge changes the hypergraph
// in place, so an analysis or plan compiled before the edge was added
// must not be served after it. Line R(A,B) S(B,C) is acyclic with
// ρ* = 2; adding T(C,A) makes it the triangle, cyclic with ρ* = 3/2.
func TestAnalyzeSeesQueryMutation(t *testing.T) {
	coverpack.ResetPlanCompileCache()
	defer coverpack.ResetPlanCompileCache()
	tri := hypergraph.MustParse("mut-ref", "R(A,B) S(B,C) T(C,A)")
	want, err := coverpack.Analyze(tri)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		analyze func(*coverpack.Query) (*coverpack.Analysis, error)
	}{
		{"Analyze", coverpack.Analyze},
		{"CompileQuery", func(q *coverpack.Query) (*coverpack.Analysis, error) {
			cp, err := coverpack.CompileQuery(q)
			if err != nil {
				return nil, err
			}
			if cp.Acyclic != cp.Analysis.Acyclic || cp.Algorithm != coverpack.RecommendAlgorithm(cp.Analysis) {
				t.Errorf("plan %+v disagrees with its own analysis", *cp)
			}
			return cp.Analysis, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := hypergraph.MustParse("mut-"+tc.name, "R(A,B) S(B,C)")
			before, err := tc.analyze(q)
			if err != nil {
				t.Fatal(err)
			}
			if !before.Acyclic || before.Rho.Cmp(big.NewRat(2, 1)) != 0 {
				t.Fatalf("line: acyclic=%v ρ*=%v, want acyclic with ρ* = 2", before.Acyclic, before.Rho)
			}
			q.AddEdge("T", "C", "A")
			after, err := tc.analyze(q)
			if err != nil {
				t.Fatal(err)
			}
			if after.Acyclic || after.Rho.Cmp(want.Rho) != 0 || after.Psi.Cmp(want.Psi) != 0 {
				t.Fatalf("after AddEdge: acyclic=%v ρ*=%v ψ*=%v, want the triangle's acyclic=false ρ*=%v ψ*=%v",
					after.Acyclic, after.Rho, after.Psi, want.Rho, want.Psi)
			}
		})
	}
}
