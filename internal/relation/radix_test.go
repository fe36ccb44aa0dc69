package relation

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomRel fills a relation with n rows drawn from [-dom, dom), so the
// sign-bit handling of the radix kernel is exercised alongside small
// positive domains with many ties.
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

// refPerm is the comparison-sort reference the radix kernel must match
// byte for byte: the stable permutation slices.SortStableFunc produces.
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

// Property: radixOrder equals the stable comparison sort for every row
// count, arity, key-column subset, domain — including negative values
// and heavy tie multiplicity — and cut of the rows into blocks.
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
		for _, fk := range blockForkers() {
			if got := radixOrder(r.data, r.rows, r.arity, pos, fk, blocksOf(fk, r.rows)); !slices.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// SortBy must produce identical arenas whichever kernel runs, so pin
// the radix path (above threshold) against a small-slice reference.
func TestSortByRadixThresholdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	schema := NewSchema(0, 1)
	for _, n := range []int{radixMinRows - 1, radixMinRows, 4 * radixMinRows} {
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
	ver := r.Version()
	r.SortBy([]int{0})
	// The skip must leave the arena untouched — observable through the
	// content version, which any rewrite would reset.
	if got := r.Version(); got != ver {
		t.Fatalf("sorted input re-sorted: version %d -> %d", ver, got)
	}
	r.AddValues(-1) // now unsorted, and the mutation invalidates
	r.SortBy([]int{0})
	if r.Row(0)[0] != -1 {
		t.Fatal("unsorted input not sorted")
	}
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
		got := r.MergeRuns(runLens, pos)
		want := r.Clone()
		want.SortBy([]int{0, 1})
		return slices.Equal(got.data, want.data) && got.Len() == r.Len()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMergeRunsValidation(t *testing.T) {
	r := New(NewSchema(0))
	r.AddValues(1)
	r.AddValues(2)
	for _, lens := range [][]int{{1}, {3}, {1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("run lengths %v accepted for 2 rows", lens)
				}
			}()
			r.MergeRuns(lens, []int{0})
		}()
	}
	// Single run: a clone, already sorted.
	out := r.MergeRuns([]int{2}, []int{0})
	if !out.Equal(r) {
		t.Fatal("single-run merge is not a clone")
	}
}

func TestGallopRowsBounds(t *testing.T) {
	r := New(NewSchema(0))
	for _, v := range []int64{1, 3, 3, 3, 5, 7} {
		r.AddValues(v)
	}
	r.AddValues(3) // row 6: the probe key
	// Non-strict: first row > key 3 within [0, 6).
	if got := r.gallopRows(0, 6, 6, []int{0}, false); got != 4 {
		t.Fatalf("gallop past ties = %d, want 4", got)
	}
	// Strict: first row >= key 3.
	if got := r.gallopRows(0, 6, 6, []int{0}, true); got != 1 {
		t.Fatalf("gallop to ties = %d, want 1", got)
	}
	// Key above every row: the full range.
	r.AddValues(100) // row 7
	if got := r.gallopRows(0, 6, 7, []int{0}, false); got != 6 {
		t.Fatalf("gallop beyond = %d, want 6", got)
	}
}

// TestMergeRunsThreePlusRunsWithBoundaryDuplicates pins satellite 3 of
// the spilling PR deterministically (the quick.Check property above
// covers it statistically): at least 3 runs, duplicate keys straddling
// every run boundary, and stability observable through a payload column
// recording each row's origin.
func TestMergeRunsThreePlusRunsWithBoundaryDuplicates(t *testing.T) {
	schema := NewSchema(0, 1)
	pos := []int{0}
	// Four sorted runs; key 5 ends run 0, starts run 1, ends run 2 and
	// fills run 3's middle, so every boundary carries a duplicate. The
	// payload column is the global input index: after a stable merge,
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
	got := r.MergeRuns(runLens, pos)
	want := r.Clone()
	want.SortBy(pos) // stable reference
	if !slices.Equal(got.data, want.data) {
		t.Fatalf("4-run merge differs from stable sort:\n got %v\nwant %v", got.data, want.data)
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
// list — leading, central, trailing, and consecutive — must be skipped
// without disturbing the merge.
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
	runLens := []int{0, 3, 0, 0, 3, 1, 0}
	got := r.MergeRuns(runLens, []int{0})
	want := r.Clone()
	want.SortBy([]int{0})
	if !slices.Equal(got.data, want.data) {
		t.Fatalf("merge with empty middle runs differs from stable sort:\n got %v\nwant %v", got.data, want.data)
	}
	// Empty runs around a single non-empty run degenerate to a clone
	// (the ≤1-run fast path, which must not count the empties as runs).
	if out := r.MergeRuns([]int{0, 7, 0}, []int{0}); !out.Equal(r) {
		t.Fatal("single-run-with-empties merge is not a clone")
	}
}
