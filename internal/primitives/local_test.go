package primitives

import (
	"math/rand"
	"slices"
	"testing"

	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// fragmented builds a distributed relation over (0, 1, wAttr) with the
// given fragment sizes, values drawn from a domain of d and weights from
// 0..4: non-negative counts, as every ReduceByKey and weightedDP caller
// sums, with zeros among them.
func fragmented(rng *rand.Rand, sizes []int, d int64) *mpc.DistRelation {
	schema := relation.NewSchema(0, 1, wAttr)
	frags := make([]*relation.Relation, len(sizes))
	for s, n := range sizes {
		frags[s] = relation.New(schema)
		for i := 0; i < n; i++ {
			frags[s].AddValues(rng.Int63n(d), rng.Int63n(d), rng.Int63n(5))
		}
	}
	return distOf(schema, frags)
}

// distOf lays rels, all of schema, out as the fragments of one
// distributed relation, rels[i] on server i.
func distOf(schema relation.Schema, rels []*relation.Relation) *mpc.DistRelation {
	var data []relation.Value
	counts := make([]int, len(rels))
	for i, r := range rels {
		data, counts[i] = append(data, r.Data()...), r.Len()
	}
	return &mpc.DistRelation{Frags: relation.NewFragsCounts(schema, data, counts)}
}

// fragsOf copies d's fragments out as relations, server i's at index i.
func fragsOf(d *mpc.DistRelation) []*relation.Relation {
	out := make([]*relation.Relation, d.Servers())
	for i := range out {
		out[i] = d.Frag(i).Clone()
	}
	return out
}

// project copies r's columns of attrs, in schema order, into a new
// relation.
func project(r *relation.Relation, attrs ...int) *relation.Relation {
	out := relation.New(relation.NewSchema(attrs...))
	for i := 0; i < r.Len(); i++ {
		var t relation.Tuple
		for _, a := range out.Schema().Attrs() {
			t = append(t, r.Row(i)[r.Schema().Pos(a)])
		}
		out.Add(t)
	}
	return out
}

// refAggregate sums wAttr per key of f in first-seen key order, one
// row per key under out (keys ∪ {wAttr}).
func refAggregate(f *relation.Relation, keys []int, out relation.Schema) *relation.Relation {
	var reps []relation.Tuple
	var sums []int64
	kpos := f.Schema().Positions(keys)
	vp := f.Schema().Pos(wAttr)
	for i := 0; i < f.Len(); i++ {
		t := f.Row(i)
		k := slices.IndexFunc(reps, func(r relation.Tuple) bool { return sameKey(r, t, kpos) })
		if k < 0 {
			reps, sums = append(reps, t), append(sums, 0)
			k = len(reps) - 1
		}
		sums[k] += t[vp]
	}
	res := relation.New(out)
	for k, rep := range reps {
		row := make(relation.Tuple, out.Len())
		for j := range row {
			if a := out.Attr(j); a == wAttr {
				row[j] = sums[k]
			} else {
				row[j] = rep[f.Schema().Pos(a)]
			}
		}
		res.Add(row)
	}
	return res
}

// TestLocalStepsMatchPerFragment: ReduceByKey's aggregation and
// weightedDP's unit weights and weight products, run server-major by mpc.Local, give every
// server what the naive per-fragment operator gives its fragment —
// over empty fragments and fragments on both sides of smallAggCutoff,
// on one worker and on four.
func TestLocalStepsMatchPerFragment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sizes := range [][]int{{0}, {3, 0, 33, 32, 1}, {100, 0, 0, 31, 2000}, {64, 64, 64, 64}} {
		d := fragmented(rng, sizes, 12)
		for _, w := range []int{1, 4} {
			g := mpc.NewCluster(len(sizes), mpc.WithWorkers(w)).Root()
			for _, keys := range [][]int{{0}, {1, 0}, {}} {
				out := relation.NewSchema(append(slices.Clone(keys), wAttr)...)
				got := mpc.Local(g, d, aggregateStep(d.Schema, keys, wAttr, out))
				for i, f := range fragsOf(d) {
					want := refAggregate(f, keys, out)
					if !slices.Equal(got.Frag(i).Clone().Data(), want.Data()) || got.FragLen(i) != want.Len() {
						t.Fatalf("sizes %v keys %v workers %d: server %d aggregates to %v, want %v", sizes, keys, w, i, got.Frag(i), want)
					}
				}
			}
			var aggs []*relation.Relation
			for _, f := range fragsOf(fragmented(rng, sizes, 12)) {
				aggs = append(aggs, project(f, 1, wAttr))
			}
			agg := distOf(relation.NewSchema(1, wAttr), aggs)
			for _, key := range [][]int{{1}, {}} {
				got := mpc.Local(g, d, multiplyStep(d.Schema, agg, key, wAttr))
				for i, f := range fragsOf(d) {
					want := relation.New(d.Schema)
					af := agg.Frag(i)
					for j := 0; j < f.Len(); j++ {
						var sum int64
						matched := false
						for k := 0; k < af.Len(); k++ {
							if a := af.Row(k); len(key) == 0 || a[0] == f.Row(j)[1] {
								sum += a[1]
								matched = true
							}
						}
						if matched && sum != 0 {
							row := f.Row(j).Clone()
							row[2] *= sum
							want.Add(row)
						}
					}
					if !slices.Equal(got.Frag(i).Clone().Data(), want.Data()) || got.FragLen(i) != want.Len() {
						t.Fatalf("sizes %v key %v workers %d: server %d multiplies to %v, want %v", sizes, key, w, i, got.Frag(i), want)
					}
				}
			}
			ws := relation.NewSchema(0, 1, 2)
			var ins []*relation.Relation
			for _, f := range fragsOf(d) {
				ins = append(ins, project(f, 0, 1))
			}
			in := distOf(relation.NewSchema(0, 1), ins)
			got := mpc.Local(g, in, unitWeights(in.Schema, ws, 2))
			for i, f := range ins {
				want := relation.New(ws)
				for j := 0; j < f.Len(); j++ {
					want.AddValues(f.Row(j)[0], f.Row(j)[1], 1)
				}
				if !slices.Equal(got.Frag(i).Clone().Data(), want.Data()) || got.FragLen(i) != want.Len() {
					t.Fatalf("sizes %v workers %d: server %d weights %v, want %v", sizes, w, i, got.Frag(i), want)
				}
			}
		}
	}
}
