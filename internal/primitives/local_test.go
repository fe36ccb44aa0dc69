package primitives

import (
	"math/rand"
	"slices"
	"testing"

	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// fragmented builds a distributed relation over (0, 1, wAttr) with the
// given fragment sizes, values drawn from a domain of d.
func fragmented(rng *rand.Rand, sizes []int, d int64) *mpc.DistRelation {
	schema := relation.NewSchema(0, 1, wAttr)
	out := &mpc.DistRelation{Schema: schema}
	for _, n := range sizes {
		f := relation.New(schema)
		for i := 0; i < n; i++ {
			f.AddValues(rng.Int63n(d), rng.Int63n(d), rng.Int63n(5)-1)
		}
		out.Frags = append(out.Frags, f)
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
				for i, f := range d.Frags {
					want := refAggregate(f, keys, out)
					if !slices.Equal(got.Frags[i].Data(), want.Data()) || got.Frags[i].Len() != want.Len() {
						t.Fatalf("sizes %v keys %v workers %d: server %d aggregates to %v, want %v", sizes, keys, w, i, got.Frags[i], want)
					}
				}
			}
			agg := &mpc.DistRelation{Schema: relation.NewSchema(1, wAttr)}
			for _, f := range fragmented(rng, sizes, 12).Frags {
				agg.Frags = append(agg.Frags, f.Project(1, wAttr))
			}
			for _, key := range [][]int{{1}, {}} {
				got := mpc.Local(g, d, multiplyStep(d.Schema, agg, key, wAttr))
				for i, f := range d.Frags {
					want := relation.New(d.Schema)
					for j := 0; j < f.Len(); j++ {
						var sum int64
						matched := false
						for k := 0; k < agg.Frags[i].Len(); k++ {
							if a := agg.Frags[i].Row(k); len(key) == 0 || a[0] == f.Row(j)[1] {
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
					if !slices.Equal(got.Frags[i].Data(), want.Data()) || got.Frags[i].Len() != want.Len() {
						t.Fatalf("sizes %v key %v workers %d: server %d multiplies to %v, want %v", sizes, key, w, i, got.Frags[i], want)
					}
				}
			}
			ws := relation.NewSchema(0, 1, 2)
			in := &mpc.DistRelation{Schema: relation.NewSchema(0, 1)}
			for _, f := range d.Frags {
				in.Frags = append(in.Frags, f.Project(0, 1))
			}
			got := mpc.Local(g, in, unitWeights(in.Schema, ws, 2))
			for i, f := range in.Frags {
				want := relation.New(ws)
				for j := 0; j < f.Len(); j++ {
					want.AddValues(f.Row(j)[0], f.Row(j)[1], 1)
				}
				if !slices.Equal(got.Frags[i].Data(), want.Data()) || got.Frags[i].Len() != want.Len() {
					t.Fatalf("sizes %v workers %d: server %d weights %v, want %v", sizes, w, i, got.Frags[i], want)
				}
			}
		}
	}
}

// TestSemiJoinCutsLargeFragments: a server whose fragment holds
// ParCutoff rows or more cuts its semi-join probe into blocks on the
// group's worker pool, and the output is the one-worker output. Two
// servers with large fragments are exactly the case the servers alone
// cannot keep four workers busy with.
func TestSemiJoinCutsLargeFragments(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := fragmented(rng, []int{4 * relation.ParCutoff, 4 * relation.ParCutoff}, 64)
	s := &mpc.DistRelation{Schema: relation.NewSchema(1, 9)}
	for range r.Frags {
		f := relation.New(s.Schema)
		for v := int64(0); v < 64; v += 3 {
			f.AddValues(v, 0)
		}
		s.Frags = append(s.Frags, f)
	}
	want := SemiJoin(mpc.NewCluster(2).Root(), r, s)
	relation.ResetParStats()
	got := SemiJoin(mpc.NewCluster(2, mpc.WithWorkers(4)).Root(), r, s)
	if st := relation.ParStats(); st.KernelRuns < 2 {
		t.Fatalf("%+v: want each server's probe cut into blocks", st)
	}
	for i := range want.Frags {
		if !slices.Equal(got.Frags[i].Data(), want.Frags[i].Data()) {
			t.Fatalf("server %d: the 4-worker semi-join differs from the 1-worker one", i)
		}
	}
}
