package relation

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The sort tests keep the names they had when sortPerm switched to an
// LSD radix kernel above 128 rows and primitives.Sort merged its
// gathered sample with a galloping k-way merge (MergeRuns): the one
// comparison sort left must give the permutation the radix kernel was
// pinned to, and a stable sort of concatenated sorted runs must give the
// stable merge of them (refMergeRuns), the sample order primitives.Sort
// now gets from SortBy.

// randomRel fills a relation with n rows drawn from [-dom, dom), so
// negative values are sorted alongside small positive domains with many
// ties.
func randomRel(rng *rand.Rand, schema Schema, n int, dom int64) *Relation {
	r := New(schema)
	t := make(Tuple, schema.Len())
	for i := 0; i < n; i++ {
		for j := range t {
			t[j] = rng.Int63n(2*dom) - dom
		}
		r.Add(t)
	}
	return r
}

// refPerm is the stable permutation slices.SortStableFunc produces over
// the row indices.
func refPerm(r *Relation, pos []int) []int32 {
	perm := make([]int32, r.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		return r.compareRowsAt(int(a), int(b), pos)
	})
	return perm
}

// Property: sortPerm's stable permutation equals the reference for every
// row count, arity, key-column subset, domain — including negative
// values and heavy tie multiplicity — or is nil on sorted rows.
func TestPropertyRadixPermMatchesStableSort(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(3)
		attrs := make([]int, arity)
		for i := range attrs {
			attrs[i] = i
		}
		schema := NewSchema(attrs...)
		n := 2 + rng.Intn(600)
		doms := []int64{2, 5, 1000, 1 << 40}
		r := randomRel(rng, schema, n, doms[rng.Intn(len(doms))])
		// Key over a random non-empty position subset, random order.
		pos := rng.Perm(arity)[:1+rng.Intn(arity)]
		want := refPerm(r, pos)
		got := r.sortPerm(pos)
		if got == nil {
			return r.sorted(pos) && slices.Equal(want, identityPerm(n))
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// SortBy must produce the stable reference's arena on both sides of the
// former radix threshold (128 rows).
func TestSortByRadixThresholdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	schema := NewSchema(0, 1)
	for _, n := range []int{127, 128, 512} {
		r := randomRel(rng, schema, n, 9) // small domain: many ties
		want := r.Clone()
		perm := refPerm(want, []int{1})
		sorted := New(schema)
		for _, pi := range perm {
			sorted.Add(want.Row(int(pi)))
		}
		r.SortBy([]int{1})
		if !slices.Equal(r.data, sorted.data) {
			t.Fatalf("n=%d: SortBy arena differs from stable reference", n)
		}
	}
}

func TestSortSkipsWhenAlreadySorted(t *testing.T) {
	r := New(NewSchema(0))
	for i := 0; i < 300; i++ {
		r.AddValues(int64(i))
	}
	arena := &r.Data()[0]
	r.SortBy([]int{0})
	// The skip must leave the arena untouched — observable through its
	// address, which any rewrite would replace.
	if &r.Data()[0] != arena {
		t.Fatal("sorted input re-sorted: the arena was replaced")
	}
	r.AddValues(-1) // now unsorted
	r.SortBy([]int{0})
	if r.Row(0)[0] != -1 {
		t.Fatal("unsorted input not sorted")
	}
}

// sortRuns is the stable sort of the concatenated runs, as
// primitives.Sort orders its gathered sample.
func sortRuns(r *Relation, pos []int) *Relation {
	out := r.Clone()
	out.SortBy(pos)
	return out
}

func TestMergeRunsEqualsStableSort(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(17))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := NewSchema(0, 1)
		pos := []int{0, 1}
		// Build k sorted runs of varying (possibly zero) lengths.
		k := 1 + rng.Intn(6)
		r := New(schema)
		runLens := make([]int, k)
		for i := range runLens {
			run := randomRel(rng, schema, rng.Intn(40), 4)
			run.SortBy([]int{0, 1})
			runLens[i] = run.Len()
			r.Append(run)
		}
		return sameRel(t, "sorted runs", sortRuns(r, pos), refMergeRuns(r, runLens, pos))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRunsThreePlusRunsWithBoundaryDuplicates pins the order
// deterministically (the quick.Check property above covers it
// statistically): at least 3 runs, duplicate keys straddling every run
// boundary, and stability observable through a payload column recording
// each row's origin.
func TestMergeRunsThreePlusRunsWithBoundaryDuplicates(t *testing.T) {
	schema := NewSchema(0, 1)
	pos := []int{0}
	// Four sorted runs; key 5 ends run 0, starts run 1, ends run 2 and
	// fills run 3's middle, so every boundary carries a duplicate. The
	// payload column is the global input index: after a stable sort,
	// rows with equal keys must keep ascending payloads.
	runs := [][]int64{
		{1, 3, 5, 5},
		{5, 6, 9},
		{2, 5},
		{4, 5, 5, 8},
	}
	r := New(schema)
	runLens := make([]int, len(runs))
	idx := int64(0)
	for i, keys := range runs {
		runLens[i] = len(keys)
		for _, k := range keys {
			r.AddValues(k, idx)
			idx++
		}
	}
	got := sortRuns(r, pos)
	if !sameRel(t, "4 runs", got, refMergeRuns(r, runLens, pos)) {
		t.Fatal("stable sort of 4 runs differs from their stable merge")
	}
	// Explicit stability check on the tied key.
	prev := int64(-1)
	for i := 0; i < got.Len(); i++ {
		row := got.Row(i)
		if row[0] != 5 {
			continue
		}
		if row[1] < prev {
			t.Fatalf("tie on key 5 reordered: payload %d after %d", row[1], prev)
		}
		prev = row[1]
	}
}

// TestMergeRunsEmptyRunsInMiddle: zero-length runs anywhere in the run
// list — leading, central, trailing, and consecutive — leave the order
// that of the non-empty runs' merge.
func TestMergeRunsEmptyRunsInMiddle(t *testing.T) {
	schema := NewSchema(0, 1)
	r := New(schema)
	for i, k := range []int64{1, 4, 7} { // run A
		r.AddValues(k, int64(i))
	}
	for i, k := range []int64{2, 4, 6} { // run B
		r.AddValues(k, int64(10+i))
	}
	for i, k := range []int64{4} { // run C
		r.AddValues(k, int64(20+i))
	}
	for _, runLens := range [][]int{{0, 3, 0, 0, 3, 1, 0}, {3, 3, 1}} {
		if !sameRel(t, "empty runs", sortRuns(r, []int{0}), refMergeRuns(r, runLens, []int{0})) {
			t.Fatalf("runs %v: stable sort differs from the stable merge", runLens)
		}
	}
}
