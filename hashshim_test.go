package coverpack_test

import (
	"hash/fnv"
	"testing"

	"coverpack"
	"coverpack/internal/hashtab"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// The arena refactor replaced the string-key hash path (relation.Key +
// FNV-64a) with hashtab.Hash over projected columns. HashPartition
// destinations are part of the determinism contract — golden reports
// and trace histograms depend on where every tuple lands — so this test
// drives the new hash against the legacy destination (legacyHashDest
// below, which still encodes the key string) over real catalog
// workloads, every projection of each schema, and a spread of group
// sizes including non-powers of two.

// legacyHashDest is the historical destination function: FNV-64a over
// the encoded key string, mod size.
func legacyHashDest(t relation.Tuple, pos []int, size int) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(relation.Key(t, pos)))
	return int(h.Sum64() % uint64(size))
}

func TestHashDestinationsMatchLegacyKeyPath(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 8, 16, 101}
	for _, entry := range coverpack.Catalog() {
		in := coverpack.Uniform(entry.Query, 300, 400, 42)
		for e, r := range in.Relations {
			schema := r.Schema()
			arity := schema.Len()
			// Every non-empty prefix and every single column, plus the
			// reversed full projection, covers the pos shapes used by
			// the operators (common-attribute sets are sorted prefixes
			// of Positions output, but order must not matter for the
			// equivalence either).
			var projections [][]int
			for k := 1; k <= arity; k++ {
				pre := make([]int, k)
				for i := range pre {
					pre[i] = i
				}
				projections = append(projections, pre)
			}
			for p := 0; p < arity; p++ {
				projections = append(projections, []int{p})
			}
			if arity > 1 {
				rev := make([]int, arity)
				for i := range rev {
					rev[i] = arity - 1 - i
				}
				projections = append(projections, rev)
			}
			for i := 0; i < r.Len(); i++ {
				row := r.Row(i)
				for _, pos := range projections {
					h := hashtab.Hash(row, pos)
					for _, size := range sizes {
						got := int(h % uint64(size))
						want := legacyHashDest(row, pos, size)
						if got != want {
							t.Fatalf("%s rel %d row %d pos %v size %d: hashtab dest %d, legacy dest %d",
								entry.Query.Name(), e, i, pos, size, got, want)
						}
					}
				}
			}
		}
	}
}

// TestHashPartitionMatchesLegacyDestinations partitions a distributed
// relation and checks every fragment's membership against a reference
// partition computed with the legacy shim — the end-to-end form of the
// destination equivalence (fragment contents and order, not just the
// hash values).
func TestHashPartitionMatchesLegacyDestinations(t *testing.T) {
	q := coverpack.Catalog()[0].Query
	in := coverpack.Uniform(q, 500, 300, 7)
	r := in.Relations[0]
	attrs := r.Schema().Attrs()[:1]
	pos := r.Schema().Positions(attrs)
	const p = 16

	c := mpc.NewCluster(p)
	d := c.Root().Scatter(r)

	// Reference: sequential pass over the scattered fragments with the
	// legacy destination function.
	want := make([]*relation.Relation, p)
	for i := range want {
		want[i] = relation.New(r.Schema())
	}
	all := d.Collect()
	for i := 0; i < all.Len(); i++ {
		tp := all.Row(i)
		want[legacyHashDest(tp, pos, p)].Add(tp)
	}

	got := c.Root().HashPartition(d, attrs)
	for s := 0; s < p; s++ {
		gf := got.Frag(s)
		if !gf.Clone().Equal(want[s]) {
			t.Fatalf("fragment %d diverged from legacy partition: got %d rows, want %d",
				s, gf.Len(), want[s].Len())
		}
		// Order within the fragment must match the sequential append
		// order too (byte-identity, not just set equality).
		for i := 0; i < gf.Len(); i++ {
			g, w := gf.Row(i), want[s].Row(i)
			for j := range g {
				if g[j] != w[j] {
					t.Fatalf("fragment %d row %d: got %v, want %v", s, i, g, w)
				}
			}
		}
	}
}
