package relation

import (
	"fmt"

	"coverpack/internal/hashtab"
)

// Streaming iterator execution.
//
// Every operator in ops.go fully materializes its output arena before
// the next operator runs. For compositions — a chain of semi-joins, a
// selection feeding a projection, a per-fragment filter between two
// exchanges — that materialization is pure overhead: the intermediate
// arena is written once, read once, and dropped. The iterators in this
// file stream fixed-size arena chunks through such compositions
// instead, so a pipeline touches one scratch chunk per stage rather
// than one full arena per stage.
//
// # Contract
//
// A RowIterator yields Chunks of at most streamChunkRows rows. A chunk
// is valid only until the next Next or Close call on the iterator that
// yielded it: computed iterators (filter, projection, dedup, join)
// reuse one pooled scratch arena per stage, and source iterators hand
// out views into the relation's arena, which the relation's own
// mutation rules already cover. Consumers that need rows to outlive
// the iteration must copy them out (Materialize).
//
// Computed iterators are single-pass: calling Next after it has
// returned ok=false panics with a clear message. Source iterators
// ((*Relation).Iter) are Rewindable and may be re-iterated freely.
//
// # Determinism
//
// Every iterator preserves input row order, and every fused helper
// (SelectEqProject, the semi-join chains in instance.go) yields rows
// in exactly the order of the materialized operators it replaces.
// Exchanges remain materialization points — iterators never cross an
// mpc communication boundary — so accounted loads, traces, and phase
// tables are byte-identical with streaming on or off; the difftest
// oracle runs both settings against the same reference to pin it.
//
// Whether a run streams is the run's own setting (mpc.WithStreaming,
// read by operators as Group.Streaming()): off, every gated
// composition goes back through the materialized operators.

// streamChunkRows is the row capacity of one streamed chunk. 256 rows
// of 8-byte values keeps a full-arity chunk within the smallest arena
// pool classes while amortizing per-chunk dispatch.
const streamChunkRows = 256

// Chunk is one fixed-capacity batch of rows yielded by a RowIterator:
// an arity-strided view of at most streamChunkRows rows. Chunks are
// borrowed, not owned — see the file comment for the validity window.
type Chunk struct {
	data  []Value
	arity int
	rows  int
}

// Len returns the number of rows in the chunk.
func (c Chunk) Len() int { return c.rows }

// Arity returns the tuple width.
func (c Chunk) Arity() int { return c.arity }

// Row returns row i as a view into the chunk, capped at the row
// boundary like Relation.Row.
func (c Chunk) Row(i int) Tuple {
	return c.data[i*c.arity : (i+1)*c.arity : (i+1)*c.arity]
}

// RowIterator streams a relation's rows in order as arena chunks.
type RowIterator interface {
	// Schema returns the schema of the yielded rows.
	Schema() Schema
	// Next yields the next chunk; ok is false once the input is
	// exhausted. The returned chunk is valid until the next Next or
	// Close call.
	Next() (c Chunk, ok bool)
	// Close releases the iterator's scratch resources. Idempotent;
	// must be called exactly at least once when abandoning an
	// iterator early (Materialize and the fused helpers close for
	// the caller).
	Close()
}

// Rewindable is a RowIterator that can restart from the first row
// without buffering — source iterators over materialized relations.
type Rewindable interface {
	RowIterator
	// Rewind resets the iterator to the first row.
	Rewind()
}

// exhaustPanic is the shared single-pass guard for computed iterators.
func exhaustPanic() {
	panic("relation: streaming iterator already exhausted; computed iterators are single-pass — Materialize the pipeline to read it again")
}

// sourceIterator streams a materialized relation as zero-copy chunk
// views into its arena. Rewindable; the views follow the relation's
// arena invalidation rules. The arena slice is captured at Iter time:
// iterating while mutating the relation is illegal anyway, and the
// capture makes an open iterator immune to the relation being parked
// to disk mid-iteration (the old backing array stays alive and
// correct — parking drops the reference, it never overwrites).
type sourceIterator struct {
	schema Schema
	data   []Value
	arity  int
	rows   int
	row    int
}

// Iter returns a rewindable iterator over the relation's rows. The
// yielded chunks are views into the relation's arena: valid as long
// as the relation is not mutated, even across Next calls. A parked
// relation (ParkTo) streams its spilled segments directly from disk —
// same contract, chunks decoded into a pooled scratch arena — without
// paging the arena back in.
func (r *Relation) Iter() Rewindable {
	if sa := r.segArena(); sa != nil {
		return sa.Iter()
	}
	return &sourceIterator{schema: r.schema, data: r.data, arity: r.arity, rows: r.rows}
}

func (it *sourceIterator) Schema() Schema { return it.schema }

func (it *sourceIterator) Next() (Chunk, bool) {
	if it.row >= it.rows {
		return Chunk{}, false
	}
	n := it.rows - it.row
	if n > streamChunkRows {
		n = streamChunkRows
	}
	var data []Value
	if it.arity > 0 {
		data = it.data[it.row*it.arity : (it.row+n)*it.arity]
	}
	it.row += n
	noteChunk()
	return Chunk{data: data, arity: it.arity, rows: n}, true
}

func (it *sourceIterator) Rewind() { it.row = 0 }

func (it *sourceIterator) Close() {}

// scratchChunk is the reusable output buffer of a computed iterator:
// one pooled arena of streamChunkRows*arity values.
type scratchChunk struct {
	data  []Value
	arity int
	rows  int
}

func newScratch(arity int) scratchChunk {
	var data []Value
	if arity > 0 {
		data = GetArena(streamChunkRows * arity)
	}
	return scratchChunk{data: data, arity: arity}
}

func (s *scratchChunk) reset()     { s.rows = 0; s.data = s.data[:0] }
func (s *scratchChunk) full() bool { return s.rows >= streamChunkRows }

// add appends a copy of t (len == arity) to the scratch.
func (s *scratchChunk) add(t Tuple) {
	s.data = append(s.data, t...)
	s.rows++
}

func (s *scratchChunk) chunk() Chunk {
	noteChunk()
	return Chunk{data: s.data, arity: s.arity, rows: s.rows}
}

func (s *scratchChunk) release() {
	PutArena(s.data[:0])
	s.data = nil
}

// filterIterator streams the rows of src that satisfy keep, compacted
// into dense chunks (filter pushdown: consumers never see dropped
// rows).
type filterIterator struct {
	src     RowIterator
	keep    func(Tuple) bool
	out     scratchChunk
	cur     Chunk // unfinished input chunk, resumed across Next calls
	curRow  int
	srcDone bool
	done    bool
	closed  bool
}

// Filter returns an iterator over the rows of src for which keep
// returns true, preserving order. Single-pass.
func Filter(src RowIterator, keep func(Tuple) bool) RowIterator {
	return &filterIterator{src: src, keep: keep, out: newScratch(src.Schema().Len())}
}

func (it *filterIterator) Schema() Schema { return it.src.Schema() }

func (it *filterIterator) Next() (Chunk, bool) {
	if it.done {
		exhaustPanic()
	}
	it.out.reset()
	for {
		// Drain the in-flight input chunk first: the scratch may have
		// filled partway through it on the previous call. cur stays
		// valid because src.Next is only called once cur is spent.
		for it.curRow < it.cur.Len() {
			t := it.cur.Row(it.curRow)
			it.curRow++
			if it.keep(t) {
				if it.out.arity == 0 {
					it.out.rows++
				} else {
					it.out.add(t)
				}
				if it.out.full() {
					return it.out.chunk(), true
				}
			}
		}
		if it.srcDone {
			if it.out.rows > 0 {
				return it.out.chunk(), true
			}
			it.done = true
			return Chunk{}, false
		}
		c, ok := it.src.Next()
		if !ok {
			it.srcDone = true
			it.src.Close()
			continue
		}
		it.cur, it.curRow = c, 0
	}
}

func (it *filterIterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	if !it.srcDone {
		it.src.Close()
	}
	it.out.release()
}

// FilterEq returns the rows of src with value v at attribute a —
// the streaming form of SelectEq, validating a at construction as
// SelectEq does.
func FilterEq(src RowIterator, a int, v Value) RowIterator {
	p := src.Schema().Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: SelectEq attribute %d not in schema %v", a, src.Schema()))
	}
	return Filter(src, func(t Tuple) bool { return t[p] == v })
}

// mapIterator applies a pure per-row transform: one output row per
// input row, under a new schema.
type mapIterator struct {
	src     RowIterator
	schema  Schema
	fn      func(dst, src Tuple)
	out     scratchChunk
	dst     Tuple
	cur     Chunk
	curRow  int
	srcDone bool
	done    bool
	closed  bool
}

// MapRows streams a per-row transform of src: for each input row t,
// fn fills dst (a reused scratch tuple of out's arity) and the result
// is emitted under the out schema. fn must be pure.
func MapRows(src RowIterator, out Schema, fn func(dst, src Tuple)) RowIterator {
	return &mapIterator{
		src:    src,
		schema: out,
		fn:     fn,
		out:    newScratch(out.Len()),
		dst:    make(Tuple, out.Len()),
	}
}

// Project streams the projection of src onto schema — the streaming
// form of ProjectTo, validating the attributes at construction exactly
// as ProjectTo does on empty inputs.
func Project(src RowIterator, schema Schema) RowIterator {
	pos := make([]int, schema.Len())
	for i := range pos {
		a := schema.Attr(i)
		p := src.Schema().Pos(a)
		if p < 0 {
			panic(fmt.Sprintf("relation: Project attribute %d not in schema %v", a, src.Schema()))
		}
		pos[i] = p
	}
	return MapRows(src, schema, func(dst, t Tuple) {
		for i, p := range pos {
			dst[i] = t[p]
		}
	})
}

func (it *mapIterator) Schema() Schema { return it.schema }

func (it *mapIterator) Next() (Chunk, bool) {
	if it.done {
		exhaustPanic()
	}
	it.out.reset()
	for {
		for it.curRow < it.cur.Len() {
			t := it.cur.Row(it.curRow)
			it.curRow++
			if it.out.arity == 0 {
				it.out.rows++
			} else {
				it.fn(it.dst, t)
				it.out.add(it.dst)
			}
			if it.out.full() {
				return it.out.chunk(), true
			}
		}
		if it.srcDone {
			if it.out.rows > 0 {
				return it.out.chunk(), true
			}
			it.done = true
			return Chunk{}, false
		}
		c, ok := it.src.Next()
		if !ok {
			it.srcDone = true
			it.src.Close()
			continue
		}
		it.cur, it.curRow = c, 0
	}
}

func (it *mapIterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	if !it.srcDone {
		it.src.Close()
	}
	it.out.release()
}

// StreamSemiJoin streams the rows of src with a partner in s on their
// common attributes — the streaming form of SemiJoin, with the same
// no-common-attribute semantics (s nonempty: pass-through; s empty:
// nothing). The probe index on s is built (or reused) exactly as the
// materialized operator builds it.
func StreamSemiJoin(src RowIterator, s *Relation) RowIterator {
	common := src.Schema().Common(s.schema)
	if len(common) == 0 {
		if s.Len() == 0 {
			return Filter(src, func(Tuple) bool { return false })
		}
		return Filter(src, func(Tuple) bool { return true })
	}
	probe := s.indexOn(s.schema.Positions(common)).table
	rPos := src.Schema().Positions(common)
	return Filter(src, func(t Tuple) bool { return probe.Find(t, rPos) >= 0 })
}

// dedupIterator streams first occurrences, tracking seen keys in an
// incremental hash table that persists across chunk boundaries (so
// duplicates straddling chunks are still dropped).
type dedupIterator struct {
	src     RowIterator
	table   *keyedSeen
	out     scratchChunk
	cur     Chunk
	curRow  int
	srcDone bool
	done    bool
	closed  bool
}

// keyedSeen is the incremental full-row membership table behind
// StreamDedup: one pooled hashtab that persists across chunk
// boundaries, so duplicates straddling chunks are still dropped.
type keyedSeen struct {
	table *hashtab.Table
	pos   []int
}

func newSeen(arity int) *keyedSeen {
	return &keyedSeen{table: hashtab.New(arity, 0), pos: identityPositions(arity)}
}

// insertNew records t and reports whether it was unseen.
func (s *keyedSeen) insertNew(t Tuple) bool {
	_, found := s.table.Insert(t, s.pos)
	return !found
}

func (s *keyedSeen) release() { s.table.Release() }

// StreamDedup streams the distinct rows of src in first-seen order —
// the streaming form of Dedup for computed pipelines.
func StreamDedup(src RowIterator) RowIterator {
	return &dedupIterator{src: src, out: newScratch(src.Schema().Len())}
}

func (it *dedupIterator) Schema() Schema { return it.src.Schema() }

func (it *dedupIterator) Next() (Chunk, bool) {
	if it.done {
		exhaustPanic()
	}
	it.out.reset()
	arity := it.src.Schema().Len()
	for {
		for it.curRow < it.cur.Len() {
			t := it.cur.Row(it.curRow)
			it.curRow++
			if it.table.insertNew(t) {
				if arity == 0 {
					it.out.rows++
				} else {
					it.out.add(t)
				}
				if it.out.full() {
					return it.out.chunk(), true
				}
			}
		}
		if it.srcDone {
			it.releaseTable()
			if it.out.rows > 0 {
				return it.out.chunk(), true
			}
			it.done = true
			return Chunk{}, false
		}
		c, ok := it.src.Next()
		if !ok {
			it.srcDone = true
			it.src.Close()
			continue
		}
		if it.table == nil {
			it.table = newSeen(arity)
		}
		it.cur, it.curRow = c, 0
	}
}

func (it *dedupIterator) releaseTable() {
	if it.table != nil {
		it.table.release()
		it.table = nil
	}
}

func (it *dedupIterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	if !it.srcDone {
		it.src.Close()
	}
	it.releaseTable()
	it.out.release()
}

// joinIterator streams the natural join of src against a materialized
// build side: for each src row in order, the matching build rows in
// build (first-insert chain) order — exactly the order Join produces
// when it builds on s. Cartesian when no attributes are shared.
type joinIterator struct {
	src      RowIterator
	build    *Relation
	out      Schema
	ix       *keyIndex // nil for the Cartesian case
	probePos []int
	rOut     []int // src column -> output position
	sOut     []int // build column -> output position
	scratch  scratchChunk
	row      Tuple // current src row (view; valid until next src.Next)
	cur      Chunk
	curOK    bool
	curRow   int
	chain    int32 // current build chain position; -1 = advance src row
	sj       int   // Cartesian: next build row
	srcDone  bool
	done     bool
	closed   bool
}

// StreamJoin streams src ⋈ s with s as the build side. Output rows
// match Relation.Join's content exactly; the order matches Join
// whenever s is the side Join would build on (|s| ≤ |src|, ties
// included) — Join picks the smaller side, breaking ties toward its
// argument. Single-pass over src.
func StreamJoin(src RowIterator, s *Relation) RowIterator {
	outSchema := src.Schema().Union(s.schema)
	it := &joinIterator{
		src:     src,
		build:   s,
		out:     outSchema,
		scratch: newScratch(outSchema.Len()),
		chain:   -1,
	}
	srcSchema := src.Schema()
	it.rOut = make([]int, srcSchema.Len())
	for i := range it.rOut {
		it.rOut[i] = outSchema.Pos(srcSchema.Attr(i))
	}
	it.sOut = make([]int, s.schema.Len())
	for i := range it.sOut {
		it.sOut[i] = outSchema.Pos(s.schema.Attr(i))
	}
	common := srcSchema.Common(s.schema)
	if len(common) > 0 {
		it.ix = s.indexOn(s.schema.Positions(common))
		it.probePos = srcSchema.Positions(common)
	}
	return it
}

func (it *joinIterator) Schema() Schema { return it.out }

// emit assembles one output row from the current src row and build
// row bt into the scratch chunk.
func (it *joinIterator) emit(bt Tuple) {
	lo := len(it.scratch.data)
	it.scratch.data = it.scratch.data[:lo+it.scratch.arity]
	dst := it.scratch.data[lo:]
	for i, p := range it.rOut {
		dst[p] = it.row[i]
	}
	for i, p := range it.sOut {
		dst[p] = bt[i]
	}
	it.scratch.rows++
}

func (it *joinIterator) Next() (Chunk, bool) {
	if it.done {
		exhaustPanic()
	}
	it.scratch.reset()
	for {
		// Drain the pending build chain of the current src row first.
		if it.ix != nil {
			for it.chain >= 0 {
				it.emit(it.build.Row(int(it.chain)))
				it.chain = it.ix.next[it.chain]
				if it.scratch.full() {
					return it.scratch.chunk(), true
				}
			}
		} else if it.row != nil {
			for it.sj < it.build.rows {
				it.emit(it.build.Row(it.sj))
				it.sj++
				if it.scratch.full() {
					return it.scratch.chunk(), true
				}
			}
			it.sj = 0
			it.row = nil
		}
		// Advance to the next src row (pulling chunks as needed).
		if !it.curOK {
			if it.srcDone {
				if it.scratch.rows > 0 {
					return it.scratch.chunk(), true
				}
				it.done = true
				return Chunk{}, false
			}
			c, ok := it.src.Next()
			if !ok {
				it.srcDone = true
				it.src.Close()
				continue
			}
			it.cur, it.curOK, it.curRow = c, true, 0
		}
		if it.curRow >= it.cur.Len() {
			it.curOK = false
			continue
		}
		it.row = it.cur.Row(it.curRow)
		it.curRow++
		if it.ix != nil {
			if e := it.ix.table.Find(it.row, it.probePos); e >= 0 {
				it.chain = it.ix.heads[e]
			} else {
				it.chain = -1
			}
		}
	}
}

func (it *joinIterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	if !it.srcDone {
		it.src.Close()
	}
	it.scratch.release()
}

// Materialize drains an iterator into a fresh relation (copying every
// chunk) and closes it. The result is an ordinary owned Relation.
func Materialize(it RowIterator) *Relation {
	out := New(it.Schema())
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		out.data = append(out.data, c.data...)
		out.rows += c.rows
	}
	it.Close()
	return out
}

// StreamCutoff is the input size at or below which gated streaming
// compositions fall back to their materialized forms (the gate is
// rows <= StreamCutoff, so a relation of exactly StreamCutoff rows
// still materializes): at one chunk's worth of rows or fewer the
// iterator scaffolding (scratch arenas, incremental tables) costs
// more than the single small intermediate it avoids. Both forms
// produce identical output, so the cutoff is invisible to every
// observable.
const StreamCutoff = streamChunkRows

// SelectEqProject fuses SelectEq(a, v).Project(attrs...) into one
// mark-then-compact pass when fused is set (the run streams) and the
// relation spans multiple chunks; otherwise it runs the two
// materialized operators.
// The fused pass lists the survivors as SelectEq does and copies only
// their projected columns into the exactly sized output — no iterator
// scaffolding, no chunk scratch arena, and no materialized SelectEq
// intermediate (which is the wide relation: it carries every column,
// while the output carries only the projected ones). Output and panics
// are identical either way: the selection attribute is validated first
// (as SelectEq would), then every projection attribute (as Project
// would, even when nothing survives the filter), and survivors are
// emitted in scan order with columns in schema order.
func (r *Relation) SelectEqProject(fused bool, a int, v Value, attrs ...int) *Relation {
	if !fused || r.rows <= StreamCutoff {
		return r.SelectEq(a, v).Project(attrs...)
	}
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: SelectEq attribute %d not in schema %v", a, r.schema))
	}
	schema := NewSchema(attrs...)
	pos := make([]int, schema.Len())
	for i := range pos {
		pa := schema.Attr(i)
		pp := r.schema.Pos(pa)
		if pp < 0 {
			panic(fmt.Sprintf("relation: Project attribute %d not in schema %v", pa, r.schema))
		}
		pos[i] = pp
	}
	r.ensureResident()
	sel := make([]int32, r.rows)
	sel = sel[:rowPred{col: p, v: v}.mark(sel, r, 0, r.rows)]
	data := make([]Value, 0, len(sel)*len(pos))
	for _, i := range sel {
		for _, q := range pos {
			data = append(data, r.data[int(i)*r.arity+q])
		}
	}
	return FromData(schema, data, len(sel))
}
