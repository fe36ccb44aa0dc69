package fractional

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"coverpack/internal/hypergraph"
)

// psiBruteForce is the definition of ψ* executed literally — build
// every residual query, merge only identical edges, solve its packing
// LP through EdgePacking — and the reference Psi's pruned mask
// enumeration is held to.
func psiBruteForce(q *hypergraph.Query) (*big.Rat, error) {
	attrs := q.AllVars().Attrs()
	best := new(big.Rat)
	for mask := 0; mask < 1<<uint(len(attrs)); mask++ {
		var x hypergraph.VarSet
		for b, a := range attrs {
			if mask&(1<<uint(b)) != 0 {
				x.Add(a)
			}
		}
		res := q.Residual(x)
		if res.NumEdges() == 0 {
			continue
		}
		tau, err := Tau(dedupEqualEdges(res))
		if err != nil {
			return nil, err
		}
		if tau.Cmp(best) > 0 {
			best = tau
		}
	}
	return best, nil
}

// dedupEqualEdges drops relations whose attribute set duplicates an
// earlier relation's.
func dedupEqualEdges(q *hypergraph.Query) *hypergraph.Query {
	var keep hypergraph.EdgeSet
	for i := 0; i < q.NumEdges(); i++ {
		dup := false
		for j := 0; j < i; j++ {
			if q.EdgeVars(i).Equal(q.EdgeVars(j)) {
				dup = true
				break
			}
		}
		if !dup {
			keep.Add(i)
		}
	}
	if keep.Len() == q.NumEdges() {
		return q
	}
	return q.KeepEdges(keep)
}

func checkPsi(t *testing.T, q *hypergraph.Query) {
	t.Helper()
	want, err := psiBruteForce(q)
	if err != nil {
		t.Fatalf("%s: brute force: %v", q, err)
	}
	got, err := Psi(q)
	if err != nil {
		t.Fatalf("%s: Psi: %v", q, err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("%s: Psi = %s, brute force = %s", q, got.RatString(), want.RatString())
	}
	// Seeding with τ*(Q), as Compute does, must not change the answer.
	tau, err := Tau(q)
	if err != nil {
		t.Fatal(err)
	}
	if seeded, err := psi(q, tau); err != nil || seeded.Cmp(want) != 0 {
		t.Fatalf("%s: psi seeded with tau = %v, %v; want %s", q, seeded, err, want.RatString())
	}
}

func TestPsiMatchesBruteForceCatalog(t *testing.T) {
	for _, ce := range hypergraph.Catalog() {
		checkPsi(t, ce.Query)
	}
}

// TestPsiMatchesBruteForceRandom covers the shapes the pruning rules
// turn on: duplicate edges, nested edges (chains e ⊂ e′ ⊂ e″),
// singletons, and attributes shared by every edge.
func TestPsiMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260918))
	for i := 0; i < 240; i++ {
		nAttrs := 1 + rng.Intn(8)
		nEdges := 1 + rng.Intn(6)
		q := hypergraph.NewQuery(fmt.Sprintf("rand%d", i))
		var sets [][]string
		for e := 0; e < nEdges; e++ {
			var attrs []string
			switch r := rng.Intn(10); {
			case r < 2 && e > 0: // duplicate of an earlier edge
				attrs = sets[rng.Intn(e)]
			case r < 5 && e > 0: // nested: a superset of an earlier edge
				attrs = append([]string(nil), sets[rng.Intn(e)]...)
				fallthrough
			default:
				for a := 0; a < nAttrs; a++ {
					if rng.Intn(3) == 0 {
						attrs = append(attrs, fmt.Sprintf("A%d", a))
					}
				}
				if len(attrs) == 0 {
					attrs = []string{fmt.Sprintf("A%d", rng.Intn(nAttrs))}
				}
			}
			sets = append(sets, attrs)
			q.AddEdge(fmt.Sprintf("R%d", e), attrs...)
		}
		checkPsi(t, q)
	}
}

func TestMinimalEdges(t *testing.T) {
	for _, tc := range []struct {
		edges []uint32
		keep  uint32
		want  string
	}{
		{[]uint32{0b011, 0b110, 0b101}, 0b111, "[3 6 5]"},
		{[]uint32{0b011, 0b110, 0b101}, 0b011, "[2 1]"},        // {A,B},{B},{A}: the pair is dropped
		{[]uint32{0b111, 0b011, 0b001}, 0b111, "[1]"},          // chain
		{[]uint32{0b001, 0b011, 0b111, 0b100}, 0b111, "[1 4]"}, // supersets arrive later
		{[]uint32{0b011, 0b011, 0b100}, 0b111, "[3 4]"},        // duplicates
		{[]uint32{0b110, 0b011, 0b010}, 0b111, "[2]"},          // one set evicts two
		{[]uint32{0b001, 0b010}, 0b100, "[]"},                  // everything emptied
	} {
		if got := fmt.Sprint(minimalEdges(nil, tc.edges, tc.keep)); got != tc.want {
			t.Errorf("minimalEdges(%b, keep %b) = %s, want %s", tc.edges, tc.keep, got, tc.want)
		}
	}
}

// The strings below were generated from the commit before the integer
// tableau. A linear program usually has many optimal vertices; which
// one the solver returns fixes HyperCube shares, worst-case instance
// shapes and the cmd/bounds goldens, so a solver change that keeps
// every optimum *value* but moves a *vertex* must fail here, by name.
var catalogOptima = []struct{ name, edgeCover, edgePacking, vertexCover, vertexPacking, psi string }{
	{"hierarchical",
		"[R1=1, R2=1] number=2",
		"[R1=1, R2=0] number=1",
		"[A=1, B=0, C=0] number=1",
		"[A=0, B=1, C=1] number=2",
		"2"},
	{"semijoin-example",
		"[R1=0, R2=1, R3=0] number=1",
		"[R1=1, R2=0, R3=1] number=2",
		"[A=1, B=1] number=2",
		"[A=1, B=0] number=1",
		"2"},
	{"stardual-3",
		"[R0=1, R1=0, R2=0, R3=0] number=1",
		"[R0=0, R1=1, R2=1, R3=1] number=3",
		"[X1=1, X2=1, X3=1] number=3",
		"[X1=1, X2=0, X3=0] number=1",
		"3"},
	{"line3",
		"[R1=1, R2=0, R3=1] number=2",
		"[R1=1, R2=0, R3=1] number=2",
		"[X1=1, X2=0, X3=1, X4=0] number=2",
		"[X1=1, X2=0, X3=1, X4=0] number=2",
		"2"},
	{"path-4",
		"[R1=1, R2=1, R3=0, R4=1] number=3",
		"[R1=1, R2=0, R3=1, R4=0] number=2",
		"[X1=0, X2=1, X3=0, X4=1, X5=0] number=2",
		"[X1=1, X2=0, X3=1, X4=0, X5=1] number=3",
		"3"},
	{"star-3",
		"[R0=0, R1=1, R2=1, R3=1] number=3",
		"[R0=0, R1=1, R2=1, R3=1] number=3",
		"[X1=0, X2=0, X3=1, Y1=1, Y2=1, Y3=0] number=3",
		"[X1=0, X2=0, X3=1, Y1=1, Y2=1, Y3=0] number=3",
		"3"},
	{"tree-2",
		"[R1=1, R2=0, R3=1, R4=1, R5=1, R6=1] number=5",
		"[R1=0, R2=1, R3=1, R4=0, R5=0, R6=0] number=2",
		"[V1=0, V2=1, V3=1, V4=0, V5=0, V6=0, V7=0] number=2",
		"[V1=1, V2=0, V3=0, V4=1, V5=1, V6=1, V7=1] number=5",
		"5"},
	{"figure4",
		"[e0=0, e1=1, e2=1, e3=1, e4=1, e5=0, e6=1, e7=1] number=6",
		"[e0=0, e1=0, e2=1, e3=0, e4=0, e5=1, e6=0, e7=0] number=2",
		"[A=1, B=0, C=0, H=0, D=0, E=1, F=0, J=0, I=0, K=0, G=0] number=2",
		"[A=0, B=0, C=0, H=1, D=1, E=1, F=1, J=0, I=0, K=1, G=1] number=6",
		"6"},
	{"triangle",
		"[R1=1/2, R2=1/2, R3=1/2] number=3/2",
		"[R1=1/2, R2=1/2, R3=1/2] number=3/2",
		"[X1=1/2, X2=1/2, X3=1/2] number=3/2",
		"[X1=1/2, X2=1/2, X3=1/2] number=3/2",
		"2"},
	{"cycle-4",
		"[R1=1, R2=0, R3=1, R4=0] number=2",
		"[R1=1, R2=0, R3=1, R4=0] number=2",
		"[X1=1, X2=0, X3=1, X4=0] number=2",
		"[X1=1, X2=0, X3=1, X4=0] number=2",
		"2"},
	{"cycle-6",
		"[R1=1, R2=0, R3=1, R4=0, R5=1, R6=0] number=3",
		"[R1=1, R2=0, R3=1, R4=0, R5=1, R6=0] number=3",
		"[X1=1, X2=0, X3=1, X4=0, X5=1, X6=0] number=3",
		"[X1=1, X2=0, X3=1, X4=0, X5=1, X6=0] number=3",
		"4"},
	{"lw-4",
		"[R1=1/3, R2=1/3, R3=1/3, R4=1/3] number=4/3",
		"[R1=1/3, R2=1/3, R3=1/3, R4=1/3] number=4/3",
		"[X2=1/3, X3=1/3, X4=1/3, X1=1/3] number=4/3",
		"[X2=1/3, X3=1/3, X4=1/3, X1=1/3] number=4/3",
		"2"},
	{"square",
		"[R1=1, R2=1, R3=0, R4=0, R5=0] number=2",
		"[R1=0, R2=0, R3=1, R4=1, R5=1] number=3",
		"[A=0, B=1, C=1, D=1, E=0, F=0] number=3",
		"[A=0, B=1, C=0, D=1, E=0, F=0] number=2",
		"3"},
	{"spoke-4",
		"[R1=1, R2=1, S1=0, S2=0, S3=0, S4=0] number=2",
		"[R1=0, R2=0, S1=1, S2=1, S3=1, S4=1] number=4",
		"[A1=0, A2=1, A3=1, A4=1, D1=1, D2=0, D3=0, D4=0] number=4",
		"[A1=0, A2=1, A3=0, A4=0, D1=1, D2=0, D3=0, D4=0] number=2",
		"4"},
	{"spoke-5",
		"[R1=1, R2=1, S1=0, S2=0, S3=0, S4=0, S5=0] number=2",
		"[R1=0, R2=0, S1=1, S2=1, S3=1, S4=1, S5=1] number=5",
		"[A1=0, A2=1, A3=1, A4=1, A5=1, D1=1, D2=0, D3=0, D4=0, D5=0] number=5",
		"[A1=0, A2=1, A3=0, A4=0, A5=0, D1=1, D2=0, D3=0, D4=0, D5=0] number=2",
		"5"},
}

func edgeWeights(a *Assignment) string {
	var parts []string
	for i, w := range a.Weights {
		parts = append(parts, a.Query.Edge(i).Name+"="+w.RatString())
	}
	return "[" + strings.Join(parts, ", ") + "] number=" + a.Number.RatString()
}

func vertexWeights(v *VertexAssignment) string {
	var parts []string
	for _, a := range v.Query.AllVars().Attrs() {
		parts = append(parts, v.Query.AttrName(a)+"="+v.Value(a).RatString())
	}
	return "[" + strings.Join(parts, ", ") + "] number=" + v.Number.RatString()
}

func TestCatalogOptimaPinned(t *testing.T) {
	catalog := hypergraph.Catalog()
	if len(catalog) != len(catalogOptima) {
		t.Fatalf("catalog has %d queries, %d pinned", len(catalog), len(catalogOptima))
	}
	for i, ce := range catalog {
		q, pin := ce.Query, catalogOptima[i]
		if q.Name() != pin.name {
			t.Fatalf("catalog[%d] = %s, pinned %s", i, q.Name(), pin.name)
		}
		check := func(what, got, want string) {
			t.Helper()
			if got != want {
				t.Errorf("%s: %s moved:\n got %s\nwant %s", q.Name(), what, got, want)
			}
		}
		ec, err := EdgeCover(q)
		if err != nil {
			t.Fatal(err)
		}
		check("edge cover", edgeWeights(ec), pin.edgeCover)
		ep, err := EdgePacking(q)
		if err != nil {
			t.Fatal(err)
		}
		check("edge packing", edgeWeights(ep), pin.edgePacking)
		vc, err := VertexCover(q)
		if err != nil {
			t.Fatal(err)
		}
		check("vertex cover", vertexWeights(vc), pin.vertexCover)
		vp, err := VertexPacking(q)
		if err != nil {
			t.Fatal(err)
		}
		check("vertex packing", vertexWeights(vp), pin.vertexPacking)
		psi, err := Psi(q)
		if err != nil {
			t.Fatal(err)
		}
		check("psi", psi.RatString(), pin.psi)
	}
}
