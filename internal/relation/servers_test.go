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

// cutAt splits a copy of r at the given ascending row offsets into
// len(cuts)+1 fragments (empty ones where offsets repeat).
func cutAt(r *Relation, cuts []int) Frags {
	off := make([]int32, 0, len(cuts)+2)
	for _, c := range append(append([]int{0}, cuts...), r.Len()) {
		off = append(off, int32(c))
	}
	return NewFrags(r.schema, slices.Clone(r.data), off)
}

// fragsOf lays rels, all of schema, out as fragments of one arena.
func fragsOf(schema Schema, rels []*Relation) Frags {
	var data []Value
	counts := make([]int, len(rels))
	for i, r := range rels {
		data, counts[i] = append(data, r.data...), r.Len()
	}
	return NewFragsCounts(schema, data, counts)
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
// compares every output fragment with ref's on a copy of the same input
// fragment. Outputs must also be capacity-capped views of one arena.
func checkFragments[S Step](t *testing.T, label string, frags Frags, s S, ref func(i int, f *Relation) *Relation) {
	t.Helper()
	need := 0
	for i := range frags.Servers() {
		need += s.Scratch(i, frags.Frag(i))
	}
	need = max(need, frags.Servers()+1) // fragmentsPar's offsets
	for _, f := range []Forker{nil, goForker{4}} {
		seedArenas(need)
		got := Fragments(f, frags, s)
		if got.Servers() != frags.Servers() {
			t.Fatalf("%s: %d fragments out of %d", label, got.Servers(), frags.Servers())
		}
		for i := range got.Servers() {
			g := got.Frag(i)
			if cap(g.data) != len(g.data) {
				t.Fatalf("%s: fragment %d has capacity %d beyond its %d values", label, i, cap(g.data), len(g.data))
			}
			if !sameRel(t, label, g.Clone(), ref(i, frags.Frag(i).Clone())) {
				t.Fatalf("%s (forker %v): fragment %d of %d differs", label, f, i, frags.Servers())
			}
		}
	}
	seedArenas(need)
	if !sameRel(t, label, one(frags.Frag(0), s), ref(0, frags.Frag(0).Clone())) {
		t.Fatalf("%s: one on fragment 0 differs", label)
	}
}

// checkServerSteps runs every relation step over the fragmentations rf
// of a relation over (0, 1) and sf of one over (1, 2), server i pairing
// rf[i] with sf[i].
func checkServerSteps(t *testing.T, rf, sf Frags, v Value) {
	t.Helper()
	rs, ss := NewSchema(0, 1), NewSchema(1, 2)
	set := map[Value]bool{0: true, v: true}
	checkFragments(t, "SelectEq", rf, SelectEqStep(rs, 0, v), func(_ int, f *Relation) *Relation { return refSelect(f, 0, v, false) })
	checkFragments(t, "SelectGt", rf, SelectGtStep(rs, 1, v), func(_ int, f *Relation) *Relation { return refSelect(f, 1, v, true) })
	checkFragments(t, "SelectIn", rf, SelectInStep(rs, 1, set, true), func(_ int, f *Relation) *Relation { return refSelectIn(f, 1, set, true) })
	checkFragments(t, "SelectNotIn", rf, SelectInStep(rs, 1, set, false), func(_ int, f *Relation) *Relation { return refSelectIn(f, 1, set, false) })
	checkFragments(t, "SemiJoin", rf, SemiJoinStep(rs, sf), func(i int, f *Relation) *Relation { return refSemiJoin(f, sf.Frag(i).Clone()) })
	for _, ps := range []Schema{NewSchema(1), NewSchema(1, 0), NewSchema()} {
		checkFragments(t, "Project", rf, ProjectStep(rs, ps), func(_ int, f *Relation) *Relation { return refProject(f, ps) })
		checkFragments(t, "SelectEqProject", rf, selectProject{sel: SelectEqStep(rs, 1, v), proj: ProjectStep(rs, ps)},
			func(_ int, f *Relation) *Relation { return refProject(refSelect(f, 1, v, false), ps) })
	}
	deg := NewSchema(1, 2)
	checkFragments(t, "Degrees", rf, DegreesStep(rs, 1, deg), func(_ int, f *Relation) *Relation { return refDegrees(f, 1, 2) })
	checkFragments(t, "Join", rf, JoinStep(rs, sf), func(i int, f *Relation) *Relation { return refJoin(f, sf.Frag(i).Clone()) })
	checkFragments(t, "Join swapped", sf, JoinStep(ss, rf), func(i int, f *Relation) *Relation { return refJoin(f, rf.Frag(i).Clone()) })
	// A 0-ary side: the product keeps the other side's rows once per
	// 0-ary row.
	zeros := make([]*Relation, rf.Servers())
	for i := range zeros {
		zeros[i] = New(NewSchema())
		for k := 0; k < rf.FragLen(i)%3; k++ {
			zeros[i].AddValues()
		}
	}
	zero := fragsOf(NewSchema(), zeros)
	checkFragments(t, "Join product", sf, JoinStep(ss, zero), func(i int, f *Relation) *Relation { return refJoin(f, zeros[i]) })
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
		if rf.Servers() != k || sf.Servers() != k {
			t.Fatalf("cut into %d and %d fragments, want %d", rf.Servers(), sf.Servers(), k)
		}
		checkServerSteps(t, rf, sf, d/2)
	})
}

// TestFragmentsAreIsolatedViews: a step's output fragments tile one
// arena in server order, a run of them (a spread's branch) is a view of
// the same arena, and no operator writes a fragment's rows: running
// every step over the fragments, and growing or sorting a relation
// wrapped around one fragment's rows, leaves the input arena as it was.
func TestFragmentsAreIsolatedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, s := randomRel(rng, NewSchema(0, 1), 60, 10), randomRel(rng, NewSchema(1, 2), 60, 10)
	rs := r.Schema()
	frags, sf := cutAt(r, []int{20, 20, 45}), cutAt(s, []int{10, 30, 30})
	before := slices.Clone(frags.data)

	out := Fragments(nil, frags, SelectGtStep(rs, 1, 3))
	all := out.Collect()
	for i, at := 0, 0; i < out.Servers(); i++ {
		f := out.Frag(i)
		if f.Len() > 0 && &f.data[0] != &all.data[at] {
			t.Fatalf("fragment %d does not start at value %d of the arena", i, at)
		}
		at += len(f.data)
		if i == out.Servers()-1 && at != len(all.data) {
			t.Fatalf("fragments cover %d of %d values", at, len(all.data))
		}
	}
	branch := out.Slice(1, 3)
	for i := range branch.Servers() {
		if b, f := branch.Frag(i), out.Frag(i+1); b.Len() != f.Len() || b.Len() > 0 && &b.data[0] != &f.data[0] {
			t.Fatalf("branch fragment %d is not fragment %d of the arena", i, i+1)
		}
	}
	if got := branch.Collect(); got.Len() != branch.Len() || got.Len() != out.FragLen(1)+out.FragLen(2) {
		t.Fatalf("branch collects %d rows, want %d", got.Len(), branch.Len())
	}

	checkServerSteps(t, frags, sf, 4)
	for i := range frags.Servers() {
		f := frags.Frag(i)
		w := FromData(rs, f.Data(), f.Len())
		w.AddValues(-1, -1)
		w.SortBy([]int{1})
		if f.Len() > 1 {
			w = FromData(rs, f.Data(), f.Len())
			w.SortBy(identityPositions(w.arity))
		}
	}
	if !slices.Equal(frags.data, before) {
		t.Fatal("an operator wrote the input fragments' arena")
	}
}
