package fractional

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"coverpack/internal/hypergraph"
)

// randomHypergraph builds a small random query: 2–5 relations over 2–6
// attributes, each relation holding 1–3 attributes, every attribute
// used at least once.
func randomHypergraph(rng *rand.Rand) *hypergraph.Query {
	nAttrs := 2 + rng.Intn(5)
	nEdges := 2 + rng.Intn(4)
	q := hypergraph.NewQuery("randh")
	names := make([]string, nAttrs)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i)
	}
	maxArity := 3
	if nAttrs < maxArity {
		maxArity = nAttrs
	}
	for e := 0; e < nEdges; e++ {
		k := 1 + rng.Intn(maxArity)
		seen := map[int]bool{}
		var attrs []string
		for len(attrs) < k {
			a := rng.Intn(nAttrs)
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, names[a])
			}
		}
		q.AddEdge(fmt.Sprintf("R%d", e), attrs...)
	}
	// Pad unused attributes into the last relation so the cover LP is
	// feasible over all named attributes... simpler: rebuild the query
	// from only the attributes actually used (they already are, since
	// Attr interning happens on use).
	return q
}

// TestPropertyWeakDuality: τ* ≤ ρ* is FALSE in general, but
// min-cover ≥ 1 and max-packing ≥ ... the reliable invariants are:
// vertex-cover number = τ* (strong LP duality), vertex-packing number
// = ρ*, ψ* ≥ max{ρ*, τ*}, and every returned assignment is feasible.
func TestPropertyDualityAndFeasibility(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(13))}
	one := big.NewRat(1, 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomHypergraph(rng)

		cover, err := EdgeCover(q)
		if err != nil {
			t.Logf("seed %d: cover: %v", seed, err)
			return false
		}
		pack, err := EdgePacking(q)
		if err != nil {
			t.Logf("seed %d: pack: %v", seed, err)
			return false
		}
		// Feasibility of returned assignments.
		for _, a := range q.AllVars().Attrs() {
			cSum, pSum := new(big.Rat), new(big.Rat)
			for _, e := range q.EdgesWith(a).Edges() {
				cSum.Add(cSum, cover.Weights[e])
				pSum.Add(pSum, pack.Weights[e])
			}
			if cSum.Cmp(one) < 0 {
				t.Logf("seed %d: cover misses %s", seed, q.AttrName(a))
				return false
			}
			if pSum.Cmp(one) > 0 {
				t.Logf("seed %d: packing overfills %s", seed, q.AttrName(a))
				return false
			}
		}
		// Strong duality with the vertex LPs.
		vc, err := VertexCover(q)
		if err != nil {
			t.Logf("seed %d: vc: %v", seed, err)
			return false
		}
		if vc.Number.Cmp(pack.Number) != 0 {
			t.Logf("seed %d: vertex cover %s != tau %s", seed, vc.Number.RatString(), pack.Number.RatString())
			return false
		}
		vp, err := VertexPacking(q)
		if err != nil {
			t.Logf("seed %d: vp: %v", seed, err)
			return false
		}
		if vp.Number.Cmp(cover.Number) != 0 {
			t.Logf("seed %d: vertex packing %s != rho %s", seed, vp.Number.RatString(), cover.Number.RatString())
			return false
		}
		// ψ* dominates both.
		psi, err := Psi(q)
		if err != nil {
			t.Logf("seed %d: psi: %v", seed, err)
			return false
		}
		if psi.Cmp(pack.Number) < 0 || psi.Cmp(cover.Number) < 0 {
			t.Logf("seed %d: psi %s below rho/tau", seed, psi.RatString())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAcyclicIntegralCover: random tree-shaped queries always
// get integral ρ* from the simplex (Lemma A.2).
func TestPropertyAcyclicIntegralCover(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Grow a random tree of binary relations.
		q := hypergraph.NewQuery("randtree")
		attrs := []string{"V0"}
		n := 2 + rng.Intn(6)
		for i := 1; i <= n; i++ {
			from := attrs[rng.Intn(len(attrs))]
			to := fmt.Sprintf("V%d", i)
			attrs = append(attrs, to)
			q.AddEdge(fmt.Sprintf("R%d", i), from, to)
		}
		cover, err := EdgeCover(q)
		if err != nil {
			return false
		}
		return cover.Number.IsInt()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyResidualPackingMonotone: removing attributes never
// decreases the packing number below... actually τ* of a residual can
// move either way; the invariant Psi encodes is that the maximum over
// residuals is attained, so Psi(q) >= Tau(residual) for a few sampled
// residuals.
func TestPropertyPsiDominatesResiduals(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(23))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomHypergraph(rng)
		psi, err := Psi(q)
		if err != nil {
			return false
		}
		attrs := q.AllVars().Attrs()
		for trial := 0; trial < 3; trial++ {
			var x hypergraph.VarSet
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					x.Add(a)
				}
			}
			res := q.Residual(x)
			if res.NumEdges() == 0 {
				continue
			}
			tau, err := Tau(res)
			if err != nil {
				return false
			}
			if psi.Cmp(tau) < 0 {
				t.Logf("seed %d: psi %s < residual tau %s (x=%s)",
					seed, psi.RatString(), tau.RatString(), q.FormatVars(x))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
