package relation

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// smallRows sizes the small-input sweeps: up to a few multiples of it,
// the inputs the catalog workloads' fragments have.
const smallRows = 64

// goForker is the test stand-in for the engine's fork: it really runs
// tasks on w goroutines (claimed off a shared counter, so placement is
// nondeterministic — exactly the adversary the byte-identity contract
// must survive).
type goForker struct{ w int }

func (f goForker) Fork(n int, fn func(i int)) {
	p := f.w
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < p; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sameRel reports whether got is want byte for byte.
func sameRel(t *testing.T, label string, got, want *Relation) bool {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) || got.Len() != want.Len() || !slices.Equal(got.data, want.data) {
		t.Logf("%s: got %v, want %v", label, got, want)
		return false
	}
	return true
}

// The kernel-vs-reference properties below keep the names they had when
// each kernel also ran over row blocks: every one now compares the one
// kernel body with its naive reference (reference_test.go).

func TestSortByParMatchesSortBy(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(23))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(3)
		schema := NewSchema(identityPositions(arity)...)
		doms := []int64{3, 1000, 1 << 40}
		r := randomRel(rng, schema, rng.Intn(512), doms[rng.Intn(len(doms))])
		pos := rng.Perm(arity)[:1+rng.Intn(arity)]
		got := r.Clone()
		got.SortBy(pos)
		return sameRel(t, "SortBy", got, refSortBy(r, pos))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSortByParSkipsSortedInput(t *testing.T) {
	r := New(NewSchema(0))
	for i := 0; i < 512; i++ {
		r.AddValues(int64(i))
	}
	arena := &r.Data()[0]
	r.SortBy([]int{0})
	if &r.Data()[0] != arena {
		t.Fatal("sorted input re-sorted: the arena was replaced")
	}
}

// The stable sort of 1, 2 and 7 concatenated sorted runs against their
// stable merge (sort_test.go).
func TestMergeRunsParMatchesMergeRuns(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(29))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := NewSchema(0, 1)
		pos := []int{0}
		for _, k := range []int{1, 2, 7} {
			r := New(schema)
			runLens := make([]int, k)
			idx := int64(0)
			for i := range runLens {
				run := New(schema)
				for j := rng.Intn(60); j > 0; j-- {
					run.AddValues(rng.Int63n(12)-6, idx) // payload pins stability
					idx++
				}
				run.SortBy(pos)
				runLens[i] = run.Len()
				for j := range run.Len() {
					r.Add(run.Row(j))
				}
			}
			if !sameRel(t, "sorted runs", sortRuns(r, pos), refMergeRuns(r, runLens, pos)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDedupParMatchesDedup(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(31))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(3)
		schema := NewSchema(identityPositions(arity)...)
		// Small domains force heavy duplication; large ones almost none.
		// Sizes fall on both sides of smallDedupCutoff.
		doms := []int64{2, 30, 1 << 30}
		r := randomRel(rng, schema, rng.Intn(6*smallDedupCutoff), doms[rng.Intn(len(doms))])
		want := refDedup(r)
		if !sameRel(t, "Dedup", r.Dedup(), want) {
			return false
		}
		first := r.FirstRows()
		for k, i := range first {
			if !slices.Equal(r.Row(int(i)), want.Row(k)) {
				t.Logf("FirstRows[%d] = row %d, not row %d of the dedup", k, i, k)
				return false
			}
		}
		return len(first) == want.Len()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSemiJoinParMatchesSemiJoin(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(37))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, NewSchema(0, 1), rng.Intn(3*smallRows), 8)
		s := randomRel(rng, NewSchema(1, 2), rng.Intn(40), 8)
		if !sameRel(t, "SemiJoin", r.SemiJoin(s), refSemiJoin(r, s)) {
			return false
		}
		set := map[Value]bool{-3: true, 2: true, 5: true}
		for _, c := range []struct {
			p    rowPred
			want *Relation
		}{
			{rowPred{op: predEq, col: 1, v: 2}, refSelect(r, 1, 2, false)},
			{rowPred{op: predGt, col: 1, v: 2}, refSelect(r, 1, 2, true)},
			{rowPred{op: predIn, col: 1, set: set}, refSelectIn(r, 1, set, true)},
			{rowPred{op: predNotIn, col: 1, set: set}, refSelectIn(r, 1, set, false)},
			{rowPred{op: predNotIn, col: 0}, r},
		} {
			if !sameRel(t, "Filter", one(r.View, Filter{p: c.p, out: r.schema}), c.want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestJoinParMatchesJoin(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(43))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Skewed key domains give long chains on some keys; either side
		// may be the build side depending on the draw, and equal sizes
		// (the tie goes to s) come up at zero.
		r := randomRel(rng, NewSchema(0, 1), rng.Intn(3*smallRows), 6)
		s := randomRel(rng, NewSchema(1, 2), rng.Intn(3*smallRows), 6)
		if rng.Intn(4) == 0 {
			s = randomRel(rng, NewSchema(1, 2), r.Len(), 6)
		}
		return sameRel(t, "Join", r.Join(s), refJoin(r, s))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestJoinParCartesian(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(1)), NewSchema(0), 2*smallRows, 5)
	s := randomRel(rand.New(rand.NewSource(2)), NewSchema(1), 3, 5)
	if !sameRel(t, "r×s", r.Join(s), refJoin(r, s)) || !sameRel(t, "s×r", s.Join(r), refJoin(s, r)) {
		t.Fatal("Cartesian Join differs from the nested loop")
	}
}

// TestJoinCountMatchesJoin: JoinCount is the size of the join Join
// builds (bag semantics: duplicate rows match once per copy), whether
// the build side carries a retained FirstRows list or none — and neither
// JoinCount nor Join builds, uses up or replaces a retained list on
// either side.
func TestJoinCountMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	big := randomRel(rng, NewSchema(0, 1), 3*smallRows, 6)
	small := randomRel(rng, NewSchema(1, 2), smallRows, 6)
	dups := randomRel(rng, NewSchema(1, 2), 10, 3)
	for i := 0; i < 10; i++ {
		dups.Add(dups.Row(i)) // every row twice
	}
	// The retained list is keyed on the full row, never on the join key.
	list := func(r, s *Relation) { s.FirstRows() }
	for _, tc := range []struct {
		name    string
		r, s    *Relation
		prepare func(r, s *Relation) // s is the build side
	}{
		{"no index", big, small, nil},
		{"retained index hit", big, small, func(r, s *Relation) { s.FirstRows(); s.FirstRows() }},
		{"retained index on another key", big, small, func(r, s *Relation) { r.FirstRows(); s.FirstRows() }},
		{"duplicate rows", big, dups, nil},
		{"duplicate rows, index hit", big, dups, list},
		{"build side first", small, big, nil},
		{"no shared attribute", big, randomRel(rng, NewSchema(2, 3), 5, 6), nil},
		{"empty r", New(NewSchema(0, 1)), small, nil},
		{"empty s", big, New(NewSchema(1, 2)), nil},
		{"empty, no shared attribute", New(NewSchema(0)), small, nil},
	} {
		r, s := tc.r.Clone(), tc.s.Clone()
		want := int64(refJoin(r, s).Len())
		if tc.prepare != nil {
			tc.prepare(r, s)
		}
		rBefore, sBefore := r.first.Load(), s.first.Load()
		got := r.JoinCount(s.View)
		n := r.Join(s).Len()
		if got != want {
			t.Errorf("%s: JoinCount %d, want %d", tc.name, got, want)
		}
		if int64(n) != want {
			t.Errorf("%s: Join builds %d rows, JoinCount counts %d", tc.name, n, want)
		}
		if r.first.Load() != rBefore || s.first.Load() != sBefore {
			t.Errorf("%s: a keyed kernel changed a retained list", tc.name)
		}
	}
}

// The small-fragment guard: the catalog workloads run ~8-row fragments,
// so the one-block case may allocate no block list, offset table,
// closure or per-row scratch. want is the measured count of this tree
// and must stay at or under parent, the count of the same call on the
// commit before the block kernels (20a6c53), measured with this test.
// Every keyed kernel builds its table within the call, so the counts
// include the build; only Dedup's retained first-row list is built by
// the first, uncounted run of AllocsPerRun. The collector is off while
// counting, so no cycle empties a pool between runs.
func TestOneBlockAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, rows := range []int{8, 10000} {
		rng := rand.New(rand.NewSource(int64(rows)))
		r := randomRel(rng, NewSchema(0, 1), rows, int64(rows))
		s := randomRel(rng, NewSchema(1, 2), rows, int64(rows))
		pos := []int{1}
		v := r.Row(0)[1]
		deg := NewSchema(1, 2)
		for _, c := range []struct {
			name         string
			want, parent [2]float64 // at 8 and 10 000 rows
			// pooled marks a kernel whose table or scratch comes from a
			// pool: under the race detector, which makes sync.Pool drop
			// items at random, its count is not pinned.
			pooled bool
			run    func()
		}{
			// The parents of SemiJoin and Join are the same calls on a
			// fresh build side (9f5040d with its index caching off): the
			// index that commit retained was rarely probed twice.
			// Each step resolves its key columns (and Join its output map)
			// into one allocation.
			{"SemiJoin", [2]float64{4, 4}, [2]float64{14, 15}, true, func() { r.SemiJoin(s) }},
			{"Join", [2]float64{5, 5}, [2]float64{22, 23}, true, func() { r.Join(s) }},
			// The parent is Join's, the call JoinCount replaces. Its count
			// table comes from the hashtab pool, its key columns from the
			// stack.
			{"JoinCount", [2]float64{3, 3}, [2]float64{13, 14}, true, func() { r.JoinCount(s.View) }},
			{"Dedup", [2]float64{2, 2}, [2]float64{2, 3}, false, func() { r.Dedup() }},
			// At 10 000 rows the radix kernel, since retired, took two
			// more: its key buffer and a second permutation.
			{"SortBy", [2]float64{4, 4}, [2]float64{4, 6}, false, func() { r.Clone().SortBy(pos) }},
			// The parents of these two are the streaming run's forms on
			// 202ad27: the fused SelectEqProject, and primitives.Degrees'
			// per-server pass (a (value, 1) relation aggregated at 8 rows,
			// a chunk-iterator aggregation at 10 000).
			{"SelectEqProject", [2]float64{4, 4}, [2]float64{9, 8}, true, func() { r.SelectEqProject(1, v, 0) }},
			{"Degrees", [2]float64{2, 2}, [2]float64{8, 20}, true, func() { one(r.View, DegreesStep(r.schema, 1, deg)) }},
		} {
			k := 0
			if rows > 8 {
				k = 1
			}
			if c.pooled && raceEnabled {
				continue
			}
			got := testing.AllocsPerRun(10, c.run)
			if got != c.want[k] || got > c.parent[k] {
				t.Errorf("%s at %d rows: %.0f allocations, want %.0f (parent %.0f)", c.name, rows, got, c.want[k], c.parent[k])
			}
		}
	}
}
