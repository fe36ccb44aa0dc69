package coverpack_test

import (
	"fmt"
	"strings"
	"testing"

	"coverpack"
	"coverpack/internal/fractional"
	"coverpack/internal/hypergraph"
)

// TestShapeSlotsMatchDirect compares the shape entry's invariant slots
// the engine reads — Analyze's analysis and the skew-aware run's ψ* —
// with the direct functions they memoize. Every catalog query is spelled
// several ways (renamed relations and attributes, reordered edges), so
// later spellings are served from the entry an earlier one seeded; one
// query over the canonical bounds checks the uncached path.
func TestShapeSlotsMatchDirect(t *testing.T) {
	coverpack.ResetPlanCompileCache()
	coverpack.ResetAnalyzeCache()
	defer coverpack.ResetPlanCompileCache()
	defer coverpack.ResetAnalyzeCache()

	check := func(q *coverpack.Query) {
		t.Helper()
		got, err := coverpack.Analyze(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := coverpack.AnalyzeDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnalysis(got, want) {
			t.Errorf("%s %s: served analysis %+v, direct %+v", q.Name(), q, *got, *want)
		}
		psi, err := coverpack.CachedPsi(q)
		if err != nil {
			t.Fatal(err)
		}
		wantPsi, err := fractional.Psi(q)
		if err != nil {
			t.Fatal(err)
		}
		if psi.Cmp(wantPsi) != 0 {
			t.Errorf("%s %s: served ψ* %v, direct %v", q.Name(), q, psi, wantPsi)
		}
	}
	for _, ce := range coverpack.Catalog() {
		for _, sp := range spellings(ce.Query) {
			check(sp)
		}
	}
	if hits, _ := coverpack.AnalyzeCacheStats(); hits == 0 {
		t.Error("no analysis was served from a shape entry")
	}
	if ps := coverpack.PlanCompileCacheStats(); ps.IsoHits == 0 {
		t.Errorf("no slot was served across spellings: %+v", ps)
	}

	// All 28 pairs of eight attributes plus three more relations: 31
	// edges, one over hypergraph.CanonMaxEdges.
	var parts []string
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			parts = append(parts, fmt.Sprintf("R%d_%d(A%d,A%d)", a, b, a, b))
		}
	}
	parts = append(parts, "S0(A0,A1,A2)", "S1(A3,A4,A5)", "S2(A5,A6,A7)")
	big := hypergraph.MustParse("over-bounds", strings.Join(parts, " "))
	if big.NumEdges() <= hypergraph.CanonMaxEdges || coverpack.CanonicalKey(big) != "" {
		t.Fatalf("%d edges, key %q: the query is not over the canonical bounds", big.NumEdges(), coverpack.CanonicalKey(big))
	}
	before := coverpack.PlanCompileCacheStats()
	check(big)
	check(big)
	if after := coverpack.PlanCompileCacheStats(); after != before {
		t.Errorf("an over-bounds query touched the shape cache: %+v -> %+v", before, after)
	}
}

// sameAnalysis compares two analyses field by field, the fractional
// numbers by value.
func sameAnalysis(a, b *coverpack.Analysis) bool {
	if a.Rho.Cmp(b.Rho) != 0 || a.Tau.Cmp(b.Tau) != 0 || a.Psi.Cmp(b.Psi) != 0 {
		return false
	}
	x, y := *a, *b
	x.Rho, x.Tau, x.Psi = nil, nil, nil
	y.Rho, y.Tau, y.Psi = nil, nil, nil
	return x == y
}

// spellings returns q and five other spellings of it: fresh relation and
// attribute names, with the attributes renamed in order or in reverse,
// and the edges in order, reversed or rotated by one.
func spellings(q *coverpack.Query) []*coverpack.Query {
	n, m := q.NumAttrs(), q.NumEdges()
	orders := map[string]func(i int) int{
		"in-order": func(i int) int { return i },
		"reversed": func(i int) int { return m - 1 - i },
		"rotated":  func(i int) int { return (i + 1) % m },
	}
	out := []*coverpack.Query{q}
	for _, reverseAttrs := range []bool{false, true} {
		for _, name := range []string{"in-order", "reversed", "rotated"} {
			var parts []string
			for i := 0; i < m; i++ {
				e := orders[name](i)
				var attrs []string
				for _, a := range q.EdgeVars(e).Attrs() {
					if reverseAttrs {
						a = n - 1 - a
					}
					attrs = append(attrs, fmt.Sprintf("X%d", a))
				}
				parts = append(parts, fmt.Sprintf("T%d(%s)", e, strings.Join(attrs, ",")))
			}
			label := fmt.Sprintf("%s/%s/rev=%v", q.Name(), name, reverseAttrs)
			out = append(out, hypergraph.MustParse(label, strings.Join(parts, " ")))
		}
	}
	return out
}
