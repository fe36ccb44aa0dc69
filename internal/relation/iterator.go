package relation

// The chunk-iterator contract: the reader the external sort (extsort.go)
// uses for parked relations, which streams spilled segments from disk
// without paging the arena back in (SegmentedArena.Iter in segment.go).
//
// A RowIterator yields Chunks of at most chunkRows rows, in row
// order. A chunk is valid only until the next Next or Close call on the
// iterator that yielded it: spilled segments are decoded into one
// pooled scratch arena, resident rows are handed out as views into the
// arena, which the relation's own mutation rules already cover.
// Consumers that need rows to outlive the iteration copy them out.

// chunkRows is the row capacity of one chunk. 256 rows of 8-byte
// values keeps a full-arity chunk within the smallest arena pool classes
// while amortizing per-chunk dispatch.
const chunkRows = 256

// Chunk is one fixed-capacity batch of rows yielded by a RowIterator:
// an arity-strided view of at most chunkRows rows. Chunks are
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
	// Close releases the iterator's scratch resources. Idempotent; call
	// it when abandoning an iterator early.
	Close()
}

// sourceIterator streams a resident relation as zero-copy chunk views
// into its arena. The arena slice is captured at Iter time: iterating
// while mutating the relation is illegal anyway, and the capture makes
// an open iterator immune to the relation being parked to disk
// mid-iteration (the old backing array stays alive and correct —
// parking drops the reference, it never overwrites).
type sourceIterator struct {
	schema Schema
	data   []Value
	arity  int
	rows   int
	row    int
}

// Iter returns an iterator over the relation's rows: chunk views into
// its arena, or, for a parked relation (ParkTo), its spilled segments
// read from disk without paging the arena back in. The engine reads
// parked segments through SegmentedArena.Iter; this entry stays because
// internal/bench's stream_join row names it, and ROADMAP item 1 deletes
// it with that row.
func (r *Relation) Iter() RowIterator {
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
	n := min(it.rows-it.row, chunkRows)
	var data []Value
	if it.arity > 0 {
		data = it.data[it.row*it.arity : (it.row+n)*it.arity]
	}
	it.row += n
	return Chunk{data: data, arity: it.arity, rows: n}, true
}

func (it *sourceIterator) Close() {}

// scratchChunk is the reusable decode buffer of the segment reader: one
// pooled arena of chunkRows*arity values.
type scratchChunk struct {
	data  []Value
	arity int
	rows  int
}

func newScratch(arity int) scratchChunk {
	var data []Value
	if arity > 0 {
		data = GetArena(chunkRows * arity)
	}
	return scratchChunk{data: data, arity: arity}
}

func (s *scratchChunk) reset() { s.rows = 0; s.data = s.data[:0] }

func (s *scratchChunk) chunk() Chunk {
	return Chunk{data: s.data, arity: s.arity, rows: s.rows}
}

func (s *scratchChunk) release() {
	PutArena(s.data[:0])
	s.data = nil
}

// Materialize drains an iterator into a fresh relation (copying every
// chunk) and closes it. No engine path calls it: it stays for
// internal/bench's stream_join row and for the tests that read parked
// segments, and ROADMAP item 1 deletes it with that row.
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

// StreamJoin is src ⋈ s returned as an iterator: it materializes src and
// runs Join, so it has no effect beyond Join. It stays because
// internal/bench's stream_join row names it; ROADMAP item 1 deletes it
// with that row.
func StreamJoin(src RowIterator, s *Relation) RowIterator {
	return Materialize(src).Join(s).Iter()
}
