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

func (f goForker) Workers() int { return f.w }

func (f goForker) ParKernels() bool { return true }

// seqKernelForker is goForker on a run with parallel kernels off
// (ExecOptions.ParKernels == ParKernelOff).
type seqKernelForker struct{ goForker }

func (seqKernelForker) ParKernels() bool { return false }

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

// cutForker is a goForker that also dictates where the kernels cut
// their input (blockCutter), so the block paths run on inputs of any
// size: cut returns the block boundaries for a kernel over rows.
type cutForker struct {
	goForker
	cut func(rows int) []int
}

func (f cutForker) cutBlocks(rows int) []int { return f.cut(rows) }

// evenBlocks cuts into nb blocks of near-equal size (empty ones when
// there are fewer rows than blocks), run on 3 goroutines.
func evenBlocks(nb int) Forker {
	return cutForker{goForker{3}, func(rows int) []int {
		cuts := make([]int, nb+1)
		for b := range cuts {
			cuts[b] = rows * b / nb
		}
		return cuts
	}}
}

// blockForkers is the sweep every kernel test runs against the naive
// reference: one block inline (nil Forker), then 1, 2 and 7 blocks
// through the forked path.
func blockForkers() map[string]Forker {
	return map[string]Forker{"inline": nil, "1 block": evenBlocks(1), "2 blocks": evenBlocks(2), "7 blocks": evenBlocks(7)}
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

func TestSortByParMatchesSortBy(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(23))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(3)
		schema := NewSchema(identityPositions(arity)...)
		doms := []int64{3, 1000, 1 << 40}
		// Both sides of radixMinRows.
		r := randomRel(rng, schema, rng.Intn(4*radixMinRows), doms[rng.Intn(len(doms))])
		pos := rng.Perm(arity)[:1+rng.Intn(arity)]
		want := refSortBy(r, pos)
		for name, fk := range blockForkers() {
			got := r.Clone()
			got.SortByPar(pos, fk)
			if !sameRel(t, name, got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSortByParSkipsSortedInput(t *testing.T) {
	r := New(NewSchema(0))
	for i := 0; i < ParCutoff+100; i++ {
		r.AddValues(int64(i))
	}
	arena := &r.Data()[0]
	r.SortByPar([]int{0}, goForker{4})
	if &r.Data()[0] != arena {
		t.Fatal("sorted input re-sorted on the block path: the arena was replaced")
	}
}

// MergeRuns has one part; its blocks are the runs.
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
				r.Append(run)
			}
			if !sameRel(t, "MergeRuns", r.MergeRuns(runLens, pos), refMergeRuns(r, runLens, pos)) {
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
		for name, fk := range blockForkers() {
			if !sameRel(t, name, r.DedupPar(fk), want) {
				return false
			}
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
		want := refSemiJoin(r, s)
		for name, fk := range blockForkers() {
			if !sameRel(t, name, r.SemiJoinPar(s, fk), want) {
				return false
			}
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
			for name, fk := range blockForkers() {
				if !sameRel(t, name, one(r, Filter{p: c.p, out: r.schema, f: fk}), c.want) {
					return false
				}
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
		want := refJoin(r, s)
		for name, fk := range blockForkers() {
			if !sameRel(t, name, r.JoinPar(s, fk), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestJoinParCartesian(t *testing.T) {
	r := randomRel(rand.New(rand.NewSource(1)), NewSchema(0), 2*smallRows, 5)
	s := randomRel(rand.New(rand.NewSource(2)), NewSchema(1), 3, 5)
	for name, fk := range blockForkers() {
		if !sameRel(t, name, r.JoinPar(s, fk), refJoin(r, s)) || !sameRel(t, name, s.JoinPar(r, fk), refJoin(s, r)) {
			t.Fatal("Cartesian JoinPar differs from the nested loop")
		}
	}
}

// TestJoinCountMatchesJoin: JoinCount is the size of the join JoinPar
// builds (bag semantics: duplicate rows match once per copy), whether
// the build side carries a retained FirstRows list or none, with caching
// on or off — and neither JoinCount nor JoinPar builds, uses up or
// replaces a retained list on either side.
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
		caching bool
	}{
		{"no index", big, small, nil, true},
		{"retained index hit", big, small, func(r, s *Relation) { s.FirstRows(); s.FirstRows() }, true},
		{"retained index on another key", big, small, func(r, s *Relation) { r.FirstRows(); s.FirstRows() }, true},
		{"caching off", big, small, list, false},
		{"duplicate rows", big, dups, nil, true},
		{"duplicate rows, index hit", big, dups, list, true},
		{"build side first", small, big, nil, true},
		{"no shared attribute", big, randomRel(rng, NewSchema(2, 3), 5, 6), nil, true},
		{"empty r", New(NewSchema(0, 1)), small, nil, true},
		{"empty s", big, New(NewSchema(1, 2)), nil, true},
		{"empty, no shared attribute", New(NewSchema(0)), small, nil, true},
	} {
		r, s := tc.r.Clone(), tc.s.Clone()
		want := int64(refJoin(r, s).Len())
		SetIndexCaching(tc.caching)
		if tc.prepare != nil {
			tc.prepare(r, s)
		}
		rBefore, sBefore := r.first.Load(), s.first.Load()
		got := r.JoinCount(s)
		n := r.JoinPar(s, nil).Len()
		SetIndexCaching(true)
		if got != want {
			t.Errorf("%s: JoinCount %d, want %d", tc.name, got, want)
		}
		if int64(n) != want {
			t.Errorf("%s: JoinPar builds %d rows, JoinCount counts %d", tc.name, n, want)
		}
		if r.first.Load() != rBefore || s.first.Load() != sBefore {
			t.Errorf("%s: a keyed kernel changed a retained list", tc.name)
		}
		if !tc.caching && sBefore != nil {
			t.Errorf("%s: a list was retained with caching off", tc.name)
		}
	}
}

// TestKernelsAboveCutoff runs every kernel through the cut blocksOf
// makes on its own — inputs of ParCutoff rows and more on a real
// multi-goroutine Forker — against the same references.
func TestKernelsAboveCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	r := randomRel(rng, NewSchema(0, 1), ParCutoff+rng.Intn(2000), 1<<20)
	for i := 0; i < r.Len(); i += 3 {
		r.Row(i)[1] = int64(i % 50) // a third of the rows find partners
	}
	s := randomRel(rng, NewSchema(1, 2), 60, 25)
	for _, w := range []int{2, 3, 8} {
		fk := goForker{w}
		ResetParStats()
		ok := sameRel(t, "SemiJoinPar", r.SemiJoinPar(s, fk), refSemiJoin(r, s)) &&
			sameRel(t, "JoinPar", r.JoinPar(s, fk), refJoin(r, s)) &&
			sameRel(t, "JoinPar swapped", s.JoinPar(r, fk), refJoin(s, r)) &&
			sameRel(t, "DedupPar", r.DedupPar(fk), r.Dedup())
		sorted := r.Clone()
		sorted.SortByPar([]int{1, 0}, fk)
		if !ok || !sameRel(t, "SortByPar", sorted, refSortBy(r, []int{1, 0})) {
			t.Fatalf("workers %d: a kernel differs from its reference above the cutoff", w)
		}
		if st := ParStats(); st.KernelRuns < 5 {
			t.Fatalf("workers %d: %+v, want every kernel over several blocks", w, st)
		}
	}
}

// ParStats: KernelRuns counts runs over several blocks, SeqCutoffs
// counts one-block runs forced by the input size on a Forker that would
// otherwise fan out; a Forker with one worker, or on a run with
// parallel kernels off, means one block and counts neither way.
func TestParKernelCutoffAndKillSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	// Dedup cuts its first-occurrence list, so keep the rows distinct.
	small := randomRel(rng, NewSchema(0, 1), ParCutoff-1, 1<<40)
	big := randomRel(rng, NewSchema(0, 1), ParCutoff, 1<<40)
	if small.Dedup().Len() != small.Len() || big.Dedup().Len() != big.Len() {
		t.Fatal("test rows are not distinct")
	}

	ResetParStats()
	_ = small.DedupPar(goForker{4})
	if st := ParStats(); st.SeqCutoffs != 1 || st.KernelRuns != 0 {
		t.Fatalf("sub-cutoff dedup counted %+v, want 1 cutoff / 0 runs", st)
	}
	_ = big.DedupPar(goForker{4})
	if st := ParStats(); st.KernelRuns != 1 {
		t.Fatalf("cutoff-size dedup counted %+v, want 1 multi-block run", st)
	}

	// A one-worker forker never counts either way.
	ResetParStats()
	_ = big.DedupPar(goForker{1})
	if st := ParStats(); st.KernelRuns != 0 || st.SeqCutoffs != 0 {
		t.Fatalf("one-worker forker counted %+v", st)
	}

	ResetParStats()
	out := big.DedupPar(seqKernelForker{goForker{4}})
	if st := ParStats(); st.KernelRuns != 0 || st.SeqCutoffs != 0 {
		t.Fatalf("ParKernels()==false ignored: %+v", st)
	}
	if !slices.Equal(out.data, refDedup(big).data) {
		t.Fatal("kernels-off path differs from the reference")
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
			// fresh build side (9f5040d with SetIndexCaching(false)): the
			// index that commit retained was rarely probed twice.
			{"SemiJoin", [2]float64{5, 5}, [2]float64{14, 15}, true, func() { r.SemiJoin(s) }},
			{"Join", [2]float64{13, 13}, [2]float64{22, 23}, true, func() { r.Join(s) }},
			// The parent is Join's, the call JoinCount replaces. Its count
			// table comes from the hashtab pool.
			{"JoinCount", [2]float64{5, 5}, [2]float64{13, 14}, true, func() { r.JoinCount(s) }},
			{"Dedup", [2]float64{2, 2}, [2]float64{2, 3}, false, func() { r.Dedup() }},
			{"SortBy", [2]float64{4, 6}, [2]float64{4, 6}, false, func() { r.Clone().SortBy(pos) }},
			// The parents of these two are the streaming run's forms on
			// 202ad27: the fused SelectEqProject, and primitives.Degrees'
			// per-server pass (a (value, 1) relation aggregated at 8 rows,
			// a chunk-iterator aggregation at 10 000).
			{"SelectEqProject", [2]float64{7, 7}, [2]float64{9, 8}, true, func() { r.SelectEqProject(1, v, 0) }},
			{"Degrees", [2]float64{2, 2}, [2]float64{8, 20}, true, func() { r.Degrees(1, deg) }},
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
