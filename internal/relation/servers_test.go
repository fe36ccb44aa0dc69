package relation

import (
	"math/rand"
	"slices"
	"testing"
)

// The server-major kernel against the per-fragment operators: every step
// run by Fragments over a fragmentation must give, fragment by fragment
// and byte for byte, what the naive reference gives on that fragment
// alone — inline and on four goroutines — and so must one on the first
// fragment. Before each call the arena pool is seeded with
// sentinel-filled arenas, so a step that reads scratch it did not write
// carries the sentinel into its output.

// scratchSentinel fills the seeded arenas; no test relation holds it.
const scratchSentinel = Value(-0x5eed5eed5eed5eed)

// seedArenas hands the arena pool four sentinel-filled arenas of every
// class up to the one holding n values. Every arena is taken out before
// any goes back, so the pool hands the seeds out next.
func seedArenas(n int) {
	var held [][]Value
	for c := 1 << minArenaBits; ; c <<= 1 {
		for range 4 {
			a := GetArena(c)
			held = append(held, a[:cap(a)])
		}
		if c >= n {
			break
		}
	}
	for _, a := range held {
		for i := range a {
			a[i] = scratchSentinel
		}
		PutArena(a)
	}
}

// cutAt splits r at the given ascending row offsets into len(cuts)+1
// fragments (empty ones where offsets repeat).
func cutAt(r *Relation, cuts []int) []*Relation {
	out := make([]*Relation, 0, len(cuts)+1)
	lo := 0
	for _, hi := range append(slices.Clone(cuts), r.Len()) {
		f := New(r.Schema())
		for i := lo; i < hi; i++ {
			f.Add(r.Row(i))
		}
		out = append(out, f)
		lo = hi
	}
	return out
}

// randomCuts returns k−1 ascending cut points in [0, rows].
func randomCuts(rng *rand.Rand, rows, k int) []int {
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = rng.Intn(rows + 1)
	}
	slices.Sort(cuts)
	return cuts
}

// checkFragments runs s over frags under schema, inline and forked, and
// compares every output fragment with ref's on the same input fragment.
// Outputs must also be capacity-capped views of one arena.
func checkFragments[S Step](t *testing.T, label string, frags []*Relation, s S, ref func(i int, f *Relation) *Relation) {
	t.Helper()
	need := 0
	for i, f := range frags {
		need += s.Scratch(i, f)
	}
	need = max(need, len(frags)+1) // fragmentsPar's offsets
	for _, f := range []Forker{nil, goForker{4}} {
		seedArenas(need)
		got := Fragments(f, frags, s)
		if len(got) != len(frags) {
			t.Fatalf("%s: %d fragments out of %d", label, len(got), len(frags))
		}
		for i, g := range got {
			if cap(g.data) != len(g.data) {
				t.Fatalf("%s: fragment %d has capacity %d beyond its %d values", label, i, cap(g.data), len(g.data))
			}
			if !sameRel(t, label, g, ref(i, frags[i])) {
				t.Fatalf("%s (forker %v): fragment %d of %d differs", label, f, i, len(frags))
			}
		}
	}
	seedArenas(need)
	if !sameRel(t, label, one(frags[0], s), ref(0, frags[0])) {
		t.Fatalf("%s: one on fragment 0 differs", label)
	}
}

// checkServerSteps runs every relation step over the fragmentations rf
// of a relation over (0, 1) and sf of one over (1, 2), server i pairing
// rf[i] with sf[i].
func checkServerSteps(t *testing.T, rf, sf []*Relation, v Value) {
	t.Helper()
	rs, ss := NewSchema(0, 1), NewSchema(1, 2)
	set := map[Value]bool{0: true, v: true}
	checkFragments(t, "SelectEq", rf, SelectEqStep(rs, 0, v), func(_ int, f *Relation) *Relation { return refSelect(f, 0, v, false) })
	checkFragments(t, "SelectGt", rf, SelectGtStep(rs, 1, v), func(_ int, f *Relation) *Relation { return refSelect(f, 1, v, true) })
	checkFragments(t, "SelectIn", rf, SelectInStep(rs, 1, set, true), func(_ int, f *Relation) *Relation { return refSelectIn(f, 1, set, true) })
	checkFragments(t, "SelectNotIn", rf, SelectInStep(rs, 1, set, false), func(_ int, f *Relation) *Relation { return refSelectIn(f, 1, set, false) })
	checkFragments(t, "SemiJoin", rf, SemiJoinStep(rs, ss, sf), func(i int, f *Relation) *Relation { return refSemiJoin(f, sf[i]) })
	for _, ps := range []Schema{NewSchema(1), NewSchema(1, 0), NewSchema()} {
		checkFragments(t, "Project", rf, ProjectStep(rs, ps), func(_ int, f *Relation) *Relation { return refProject(f, ps) })
		checkFragments(t, "SelectEqProject", rf, selectProject{sel: SelectEqStep(rs, 1, v), proj: ProjectStep(rs, ps)},
			func(_ int, f *Relation) *Relation { return refProject(refSelect(f, 1, v, false), ps) })
	}
	deg := NewSchema(1, 2)
	checkFragments(t, "Degrees", rf, DegreesStep(rs, 1, deg), func(_ int, f *Relation) *Relation { return refDegrees(f, 1, 2) })
	checkFragments(t, "Join", rf, JoinStep(rs, ss, sf), func(i int, f *Relation) *Relation { return refJoin(f, sf[i]) })
	checkFragments(t, "Join swapped", sf, JoinStep(ss, rs, rf), func(i int, f *Relation) *Relation { return refJoin(f, rf[i]) })
	// A 0-ary side: the product keeps the other side's rows once per
	// 0-ary row.
	zero := make([]*Relation, len(rf))
	for i, f := range rf {
		zero[i] = New(NewSchema())
		for k := 0; k < f.Len()%3; k++ {
			zero[i].AddValues()
		}
	}
	checkFragments(t, "Join product", sf, JoinStep(ss, NewSchema(), zero), func(i int, f *Relation) *Relation { return refJoin(f, zero[i]) })
	checkFragments(t, "Project 0-ary", zero, ProjectStep(NewSchema(), NewSchema()), func(_ int, f *Relation) *Relation { return f })
	for _, pos := range [][]int{{0}, {1, 0}} {
		checkFragments(t, "Sort", rf, SortStep(rs, pos), func(_ int, f *Relation) *Relation { return refSortBy(f, pos) })
		checkFragments(t, "Sample", rf, SampleStep(rs, pos, 8), func(_ int, f *Relation) *Relation {
			sorted, out := refSortBy(f, pos), New(rs)
			for i := 0; i < sorted.Len(); i += max(sorted.Len()/8, 1) {
				out.Add(sorted.Row(i))
			}
			return out
		})
	}
}

// TestFragmentsMatchPerFragmentOperators sweeps random fragmentations
// with empty fragments and fragments on both sides of smallDedupCutoff,
// and one large fragment (paired with a small one, which keeps the
// nested-loop references fast).
func TestFragmentsMatchPerFragmentOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ rows, k int }{
		{0, 1}, {0, 4}, {5, 1}, {40, 3}, {100, 8}, {300, 64},
	} {
		d := int64(c.rows/4 + 2)
		r, s := randomRel(rng, NewSchema(0, 1), c.rows, d), randomRel(rng, NewSchema(1, 2), c.rows, d)
		rf, sf := cutAt(r, randomCuts(rng, r.Len(), c.k)), cutAt(s, randomCuts(rng, s.Len(), c.k))
		checkServerSteps(t, rf, sf, Value(rng.Int63n(d)))
	}
	r, s := randomRel(rng, NewSchema(0, 1), 4296, 500), randomRel(rng, NewSchema(1, 2), 100, 500)
	checkServerSteps(t, cutAt(r, []int{100}), cutAt(s, []int{60}), 250)
}

// FuzzLocalServers: arbitrary rows, cut into arbitrary fragmentations
// (empty fragments included), through every step against the naive
// per-fragment references.
func FuzzLocalServers(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, []byte{2, 3, 4, 5}, []byte{1, 1, 3}, uint8(5))
	f.Add(make([]byte, 200), make([]byte, 90), []byte{0, 40, 40, 90}, uint8(2))
	f.Fuzz(func(t *testing.T, rb, sb, cuts []byte, domain uint8) {
		d := Value(domain%13) + 1
		r := New(NewSchema(0, 1))
		for i := 0; i+1 < len(rb); i += 2 {
			r.Add(Tuple{Value(rb[i]) % d, Value(rb[i+1]) % d})
		}
		s := New(NewSchema(1, 2))
		for i := 0; i+1 < len(sb); i += 2 {
			s.Add(Tuple{Value(sb[i]) % d, Value(sb[i+1]) % d})
		}
		k := len(cuts) + 1
		rc, sc := make([]int, len(cuts)), make([]int, len(cuts))
		for i, c := range cuts {
			rc[i] = int(c) % (r.Len() + 1)
			sc[i] = int(c) % (s.Len() + 1)
		}
		slices.Sort(rc)
		slices.Sort(sc)
		rf, sf := cutAt(r, rc), cutAt(s, sc)
		if len(rf) != k || len(sf) != k {
			t.Fatalf("cut into %d and %d fragments, want %d", len(rf), len(sf), k)
		}
		checkServerSteps(t, rf, sf, d/2)
	})
}

// TestFragmentsAreIsolatedViews: the outputs share one arena, capped at
// each fragment's region, so growing or reordering one fragment leaves
// its neighbours' rows unchanged.
func TestFragmentsAreIsolatedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRel(rng, NewSchema(0, 1), 60, 10)
	rs := r.Schema()
	frags := cutAt(r, []int{20, 40})
	for _, mutate := range []struct {
		name string
		fn   func(f *Relation)
	}{
		{"Add", func(f *Relation) { f.AddValues(-1, -1) }},
		{"SortBy", func(f *Relation) { f.SortBy([]int{1}) }},
	} {
		out := Fragments(nil, frags, ProjectStep(rs, rs))
		want := make([][]Value, len(out))
		for i, f := range out {
			want[i] = slices.Clone(f.data)
		}
		mutate.fn(out[1])
		for _, i := range []int{0, 2} {
			if !slices.Equal(out[i].data, want[i]) {
				t.Fatalf("%s on fragment 1 changed fragment %d", mutate.name, i)
			}
		}
	}
}
