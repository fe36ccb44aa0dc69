package relation

import (
	"strings"
	"testing"
)

// Streaming execution is pinned by two layers: the end-to-end difftest
// oracle (root package) proves whole runs are byte-identical with
// streaming on or off, and this file pins the operator-level contract —
// every streaming operator yields exactly the rows, in exactly the
// order, of its materialized counterpart, across the edge cases that
// chunked execution introduces (empty inputs, single partial chunks,
// state straddling chunk boundaries, single-pass enforcement).

// buildRel constructs a relation over schema attrs from flat values.
func buildRel(attrs []int, vals ...Value) *Relation {
	r := New(NewSchema(attrs...))
	arity := len(attrs)
	for i := 0; i+arity <= len(vals); i += arity {
		r.Add(Tuple(vals[i : i+arity]))
	}
	return r
}

// assertSame fails unless got reproduces want row for row.
func assertSame(t *testing.T, label string, got, want *Relation) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema %v, want %v", label, got.Schema(), want.Schema())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d\n got: %v\nwant: %v", label, got.Len(), want.Len(), got, want)
	}
	for i := 0; i < want.Len(); i++ {
		if !got.Row(i).Equal(want.Row(i)) {
			t.Fatalf("%s: row %d is %v, want %v", label, i, got.Row(i), want.Row(i))
		}
	}
}

func TestStreamOpsEmptyInput(t *testing.T) {
	empty := buildRel([]int{1, 2})
	s := buildRel([]int{2, 3}, 10, 100)

	assertSame(t, "filter", Materialize(Filter(empty.Iter(), func(Tuple) bool { return true })), empty)
	assertSame(t, "project", Materialize(Project(empty.Iter(), NewSchema(2))), empty.ProjectTo(NewSchema(2)))
	assertSame(t, "dedup", Materialize(StreamDedup(empty.Iter())), empty.Dedup())
	assertSame(t, "semijoin", Materialize(StreamSemiJoin(empty.Iter(), s)), empty.SemiJoin(s))
	assertSame(t, "join", Materialize(StreamJoin(empty.Iter(), s)), empty.Join(s))

	// And the source iterator itself: no chunks at all.
	it := empty.Iter()
	if _, ok := it.Next(); ok {
		t.Fatal("empty source yielded a chunk")
	}
}

func TestStreamOpsSingleChunk(t *testing.T) {
	// Fewer rows than streamChunkRows: every operator sees exactly one
	// partial chunk.
	r := buildRel([]int{1, 2},
		1, 10, 2, 20, 1, 10, 3, 30, 2, 25)
	s := buildRel([]int{2, 3},
		10, 100, 25, 250, 99, 990)

	assertSame(t, "dedup", Materialize(StreamDedup(r.Iter())), r.Dedup())
	assertSame(t, "semijoin", Materialize(StreamSemiJoin(r.Iter(), s)), r.SemiJoin(s))
	assertSame(t, "selecteq", Materialize(FilterEq(r.Iter(), 1, 1)), r.SelectEq(1, 1))
	assertSame(t, "project", Materialize(Project(r.Iter(), NewSchema(2))), r.ProjectTo(NewSchema(2)))
	// s is the smaller side, so Join builds on it and StreamJoin's
	// order matches exactly.
	assertSame(t, "join", Materialize(StreamJoin(r.Iter(), s)), r.Join(s))
}

// TestStreamDedupChunkStraddlingDuplicates drives duplicates across
// chunk boundaries: with 3×streamChunkRows rows cycling through
// streamChunkRows+7 distinct keys, every repeat lands in a different
// chunk than its first occurrence, so dropping it requires the seen
// table to persist across Next calls.
func TestStreamDedupChunkStraddlingDuplicates(t *testing.T) {
	distinct := streamChunkRows + 7
	r := New(NewSchema(1, 2))
	for i := 0; i < 3*streamChunkRows; i++ {
		k := i % distinct
		r.Add(Tuple{Value(k), Value(k * 10)})
	}
	want := r.Dedup()
	if want.Len() != distinct {
		t.Fatalf("materialized dedup kept %d rows, want %d", want.Len(), distinct)
	}
	assertSame(t, "StreamDedup", Materialize(StreamDedup(r.Iter())), want)
}

// TestStreamFilterResumesMidChunk forces the scratch chunk to fill
// partway through an input chunk (a keep-everything filter compacts
// 256-row input chunks into 256-row output chunks, but a dedup ahead
// of it desynchronizes the boundaries), checking no rows are dropped
// at the resume point.
func TestStreamFilterResumesMidChunk(t *testing.T) {
	r := New(NewSchema(1))
	for i := 0; i < 4*streamChunkRows; i++ {
		r.Add(Tuple{Value(i % (2*streamChunkRows - 3))})
	}
	got := Materialize(Filter(StreamDedup(r.Iter()), func(t Tuple) bool { return t[0]%2 == 0 }))
	ref := New(r.Schema())
	d := r.Dedup()
	for i := 0; i < d.Len(); i++ {
		if t := d.Row(i); t[0]%2 == 0 {
			ref.Add(t)
		}
	}
	assertSame(t, "filter-after-dedup", got, ref)
}

func TestStreamDoubleIterationPanics(t *testing.T) {
	r := buildRel([]int{1}, 1, 2, 3)
	it := Filter(r.Iter(), func(Tuple) bool { return true })
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "single-pass") || !strings.Contains(msg, "Materialize") {
			t.Fatalf("re-iterating an exhausted computed iterator: panic %q, want the single-pass guidance", msg)
		}
	}()
	it.Next()
	t.Fatal("Next after exhaustion did not panic")
}

// TestStreamingArenaPoolBalance pins that every pooled arena a
// streaming pipeline takes (scratch chunks; dedup tables pool
// separately) goes back through PutArena by the time the pipeline is
// closed.
func TestStreamingArenaPoolBalance(t *testing.T) {
	if !PoolingEnabled() {
		t.Skip("pooling disabled")
	}
	r := New(NewSchema(1, 2))
	for i := 0; i < 3*streamChunkRows; i++ {
		r.Add(Tuple{Value(i % 100), Value(i)})
	}
	s := buildRel([]int{2, 3}, 10, 100, 20, 200)

	ResetPoolStats()
	// A pipeline with every scratch-owning iterator, materialized.
	Materialize(Project(StreamSemiJoin(StreamDedup(r.Iter()), s), NewSchema(1)))
	// An abandoned pipeline: Close mid-stream must still return every
	// scratch arena.
	it := Project(Filter(r.Iter(), func(Tuple) bool { return true }), NewSchema(2))
	it.Next()
	it.Close()

	st := PoolStats()
	if st.Gets != st.Puts {
		t.Fatalf("arena pool out of balance after streaming pipelines: gets=%d puts=%d (discards=%d)",
			st.Gets, st.Puts, st.Discards)
	}
}

// FuzzStreamingVsMaterialized feeds arbitrary two-relation instances
// through every streaming operator and its materialized counterpart,
// requiring row-for-row agreement. Values are folded into a small
// domain so duplicates and join partners actually occur.
func FuzzStreamingVsMaterialized(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2, 3}, byte(7))
	f.Add([]byte{}, []byte{9, 9, 9, 9}, byte(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0, 0}, byte(0))
	f.Fuzz(func(t *testing.T, rb, sb []byte, domain byte) {
		d := Value(domain%13) + 1
		r := New(NewSchema(1, 2))
		for i := 0; i+1 < len(rb); i += 2 {
			r.Add(Tuple{Value(rb[i]) % d, Value(rb[i+1]) % d})
		}
		s := New(NewSchema(2, 3))
		for i := 0; i+1 < len(sb); i += 2 {
			s.Add(Tuple{Value(sb[i]) % d, Value(sb[i+1]) % d})
		}

		check := func(label string, got, want *Relation) {
			t.Helper()
			if got.Len() != want.Len() {
				t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
			}
			if !got.Schema().Equal(want.Schema()) {
				t.Fatalf("%s: schema %v, want %v", label, got.Schema(), want.Schema())
			}
			for i := 0; i < want.Len(); i++ {
				if !got.Row(i).Equal(want.Row(i)) {
					t.Fatalf("%s: row %d is %v, want %v", label, i, got.Row(i), want.Row(i))
				}
			}
		}

		check("dedup", Materialize(StreamDedup(r.Iter())), r.Dedup())
		check("semijoin", Materialize(StreamSemiJoin(r.Iter(), s)), r.SemiJoin(s))
		check("selecteq", Materialize(FilterEq(r.Iter(), 2, 0)), r.SelectEq(2, 0))
		check("project", Materialize(Project(r.Iter(), NewSchema(2, 1))), r.ProjectTo(NewSchema(2, 1)))
		if s.Len() <= r.Len() {
			// Join builds on s here, the order StreamJoin reproduces.
			check("join", Materialize(StreamJoin(r.Iter(), s)), r.Join(s))
		}
		// Chained semi-join filters, the sequential oracle's fused form.
		chained := Materialize(StreamSemiJoin(StreamSemiJoin(r.Iter(), s), s))
		check("chained-semijoin", chained, r.SemiJoin(s).SemiJoin(s))
	})
}

// TestStreamCutoffBoundary pins the SelectEqProject gate: unfused, or
// at or below StreamCutoff rows, it runs the two materialized
// operators; above the cutoff it runs the fused direct single pass —
// which builds neither iterator chunks nor the wide SelectEq
// intermediate, so it must produce zero chunks AND allocate strictly
// less than the two-operator reference. Both paths must agree on the
// output either way.
func TestStreamCutoffBoundary(t *testing.T) {
	build := func(n int) *Relation {
		r := New(NewSchema(1, 2))
		for i := 0; i < n; i++ {
			r.Add(Tuple{Value(i % 4), Value(i)})
		}
		return r
	}
	ref := func(r *Relation) *Relation { return r.SelectEq(1, 1).Project(2) }

	at := build(StreamCutoff)
	before := StreamStats().Chunks
	assertSame(t, "at-cutoff", at.SelectEqProject(true, 1, 1, 2), ref(at))
	if got := StreamStats().Chunks - before; got != 0 {
		t.Fatalf("exactly StreamCutoff rows produced %d chunks; the gate must materialize at the boundary", got)
	}

	above := build(StreamCutoff + 1)
	before = StreamStats().Chunks
	assertSame(t, "above-cutoff", above.SelectEqProject(true, 1, 1, 2), ref(above))
	if got := StreamStats().Chunks - before; got != 0 {
		t.Fatalf("fused single pass produced %d chunks; it must not build iterator scaffolding", got)
	}
	assertSame(t, "unfused", above.SelectEqProject(false, 1, 1, 2), ref(above))
	fused := testing.AllocsPerRun(20, func() { above.SelectEqProject(true, 1, 1, 2) })
	twoOp := testing.AllocsPerRun(20, func() { ref(above) })
	if fused >= twoOp {
		t.Fatalf("fused pass allocates %.0f times vs %.0f for SelectEq+Project; fusion must skip the wide intermediate", fused, twoOp)
	}
}

// TestStreamingArenaPoolBalanceErrorAndEarlyExit extends the
// pool-balance invariant (Gets==Puts) to the paths that do not drain
// their input: pipelines abandoned before the first chunk, pipelines
// closed twice, and a consumer panic unwinding through a deferred
// Close.
func TestStreamingArenaPoolBalanceErrorAndEarlyExit(t *testing.T) {
	if !PoolingEnabled() {
		t.Skip("pooling disabled")
	}
	r := New(NewSchema(1, 2))
	for i := 0; i < 3*streamChunkRows; i++ {
		r.Add(Tuple{Value(i % 60), Value(i)})
	}
	s := buildRel([]int{2, 3}, 10, 100, 20, 200)
	ResetPoolStats()

	// Closed before any Next: scratch arenas acquired at construction
	// must still come back.
	it := Project(StreamSemiJoin(StreamDedup(r.Iter()), s), NewSchema(1))
	it.Close()
	it.Close() // double close is a no-op

	// Early exit after a partial read, then double close.
	it = StreamJoin(r.Iter(), s)
	it.Next()
	it.Close()
	it.Close()

	// Consumer panic: the deferred Close runs mid-stream, as it would
	// in a recovering caller.
	func() {
		defer func() { recover() }()
		it := StreamDedup(r.Iter())
		defer it.Close()
		it.Next()
		panic("consumer failure")
	}()

	st := PoolStats()
	if st.Gets != st.Puts {
		t.Fatalf("arena pool out of balance on error/early-exit paths: gets=%d puts=%d (discards=%d)",
			st.Gets, st.Puts, st.Discards)
	}
}
