package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/plan"
)

// FuzzShapeSlotsMatchDirect compares the shape entry's structural
// slots — the join tree (plan.GYO) and, for acyclic queries, the
// integral cover (coverFor) — with the direct functions they memoize.
// One spelling of a random small hypergraph seeds the entry; a pure
// renaming of it (same edge structure, so its slots are served from the
// seeded entry) and a spelling with renamed attributes and reordered
// edges (chosen by the seed) must then read exactly what hypergraph.GYO
// and IntegralCover compute.
func FuzzShapeSlotsMatchDirect(f *testing.F) {
	f.Add([]byte{3, 0b011, 0b110}, uint64(1))
	f.Add([]byte{4, 0b0011, 0b0110, 0b1100, 0b1001}, uint64(7))
	f.Add([]byte{5, 0b00111, 0b11100, 0b00111}, uint64(42))   // duplicate edge
	f.Add([]byte{6, 0b000011, 0b001100, 0b110000}, uint64(9)) // disconnected
	f.Add([]byte{5, 0b00011, 0b00110, 0b01100, 0b11000, 0b00101}, uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%6 // 2..7 vertices
		var edges [][]int
		for _, b := range data[1:] {
			mask := int(b) % (1 << n)
			if mask == 0 {
				continue
			}
			var vs []int
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					vs = append(vs, v)
				}
			}
			edges = append(edges, vs)
			if len(edges) == 6 {
				break
			}
		}
		if len(edges) == 0 {
			return
		}
		rng := seed | 1
		next := func(k int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(k))
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		order := make([]int, len(edges))
		for i := range order {
			order[i] = i
		}
		spell := func(name string, perm, order []int) *hypergraph.Query {
			var parts []string
			for _, e := range order {
				var names []string
				for _, v := range edges[e] {
					names = append(names, fmt.Sprintf("%s%d", name, perm[v]))
				}
				parts = append(parts, fmt.Sprintf("%s%d(%s)", strings.ToUpper(name), e, strings.Join(names, ",")))
			}
			return hypergraph.MustParse(name, strings.Join(parts, " "))
		}
		seedQ := spell("a", perm, order)
		renamed := spell("b", perm, order)
		for i := len(perm) - 1; i > 0; i-- {
			j := next(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := len(order) - 1; i > 0; i-- {
			j := next(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		reordered := spell("c", perm, order)

		plan.Reset()
		defer plan.Reset()
		for _, q := range []*hypergraph.Query{seedQ, renamed, reordered} {
			gotT, gotOK := plan.GYO(q)
			wantT, wantOK := hypergraph.GYO(q)
			if gotOK != wantOK || !reflect.DeepEqual(gotT, wantT) {
				t.Fatalf("%s %s: served join tree %+v (acyclic %v), direct %+v (acyclic %v)",
					q.Name(), q, gotT, gotOK, wantT, wantOK)
			}
			if !wantOK {
				continue // IntegralCover takes acyclic queries only
			}
			got, err := coverFor(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := IntegralCover(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Edges(), want.Edges()) {
				t.Fatalf("%s %s: served cover %v, direct %v", q.Name(), q, got.Edges(), want.Edges())
			}
		}
		if st := plan.Snapshot(); st.Hits == 0 {
			t.Fatalf("the renamed spelling was not served from the seeded entry: %+v", st)
		}
	})
}
