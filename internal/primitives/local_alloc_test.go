//go:build !race

package primitives

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// TestLocalAllocsIndependentOfServers: a server-major local step costs
// the output DistRelation, its offset vector and one arena, whatever the
// group size — a filter, an aggregate, a Broadcast, a two-way Union
// (the S^x degree union) and a Pack over the same 256 rows read the
// same allocation count on 4 servers as on 64. (The race detector makes
// sync.Pool drop items at random, so the pooled scratch is not pinned
// under it.)
func TestLocalAllocsIndependentOfServers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rows = 256
	counts := map[string][]float64{}
	for _, p := range []int{4, 64} {
		sizes := make([]int, p)
		for i := range sizes {
			sizes[i] = rows / p
		}
		d := fragmented(rand.New(rand.NewSource(5)), sizes, 40)
		g := mpc.NewCluster(p).Root()
		keys, out := []int{0}, relation.NewSchema(0, wAttr)
		agg := aggregateStep(d.Schema, keys, wAttr, out)
		sel := relation.SelectGtStep(d.Schema, 1, 20)
		both := []*mpc.DistRelation{d, d}
		w := relation.New(relation.NewSchema(0, wAttr))
		for v := range int64(rows) {
			w.AddValues(v, v%4+1)
		}
		weights := g.Scatter(w)
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"filter", func() { mpc.Local(g, d, sel) }},
			{"aggregate", func() { mpc.Local(g, d, agg) }},
			{"aggregateStep", func() { aggregateStep(d.Schema, keys, wAttr, out) }},
			{"Broadcast", func() { g.Broadcast(d) }},
			{"Union", func() { Union(g, both) }},
			{"Pack", func() { Pack(g, weights, 0, wAttr, gAttr, 10) }},
		} {
			counts[c.name] = append(counts[c.name], testing.AllocsPerRun(20, c.run))
		}
	}
	// The DistRelation, its offset vector and the arena; Broadcast's
	// charged load vector comes from the exchange scratch. Pack adds its
	// offset vector and its output schema; its next-fit scratch comes
	// from the arena pool. Building the aggregate step costs its one
	// column-map allocation.
	want := map[string]float64{"filter": 3, "aggregate": 3, "aggregateStep": 1, "Broadcast": 3, "Union": 3, "Pack": 5}
	for name, n := range counts {
		if n[0] != want[name] || n[1] != want[name] {
			t.Errorf("%s: %v allocations on 4 servers, %v on 64, want %v", name, n[0], n[1], want[name])
		}
	}
}
