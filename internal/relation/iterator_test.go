package relation

import "testing"

// The chunk-iterator contract: every chunk holds at most
// chunkRows rows, the chunks concatenate to the relation in row
// order, and the pooled scratch arena of the segment reader comes back
// on Close, also when the reader is abandoned mid-stream.

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

// drainChunks reads it to the end, checking every chunk's shape, and
// returns the number of chunks.
func drainChunks(t *testing.T, it RowIterator) int {
	t.Helper()
	n := 0
	for {
		c, ok := it.Next()
		if !ok {
			return n
		}
		if c.Len() < 1 || c.Len() > chunkRows || c.Arity() != it.Schema().Len() {
			t.Fatalf("chunk %d: %d rows of arity %d", n, c.Len(), c.Arity())
		}
		n++
	}
}

// TestIterChunks: empty input yields no chunk, a partial chunk and rows
// straddling several chunks come back whole and in order, and 0-ary
// relations keep their multiplicity.
func TestIterChunks(t *testing.T) {
	for _, c := range []struct {
		schema       Schema
		rows, chunks int
	}{
		{NewSchema(1, 2), 0, 0},
		{NewSchema(1, 2), 5, 1},
		{NewSchema(1, 2), chunkRows, 1},
		{NewSchema(1, 2), 3*chunkRows + 7, 4},
		{NewSchema(), 2*chunkRows + 1, 3},
	} {
		r := New(c.schema)
		for i := 0; i < c.rows; i++ {
			r.Add(make(Tuple, c.schema.Len()))
			if c.schema.Len() > 0 {
				r.Row(i)[0] = Value(i)
			}
		}
		if got := drainChunks(t, r.Iter()); got != c.chunks {
			t.Fatalf("%d rows of arity %d: %d chunks, want %d", c.rows, c.schema.Len(), got, c.chunks)
		}
		assertSame(t, "Materialize(Iter)", Materialize(r.Iter()), r)
	}
}

// StreamJoin is Join behind an iterator.
func TestStreamJoinIsJoin(t *testing.T) {
	r := FromData(NewSchema(1, 2), []Value{1, 10, 2, 20, 1, 10, 3, 30, 2, 25}, 5)
	s := FromData(NewSchema(2, 3), []Value{10, 100, 25, 250, 99, 990}, 3)
	assertSame(t, "StreamJoin", Materialize(StreamJoin(r.Iter(), s)), r.Join(s))
}

// TestSegIteratorArenaPoolBalance: every scratch arena the segment
// reader takes goes back through PutArena on Close — after a full read,
// after a partial one, before any Next, and on a second Close.
func TestSegIteratorArenaPoolBalance(t *testing.T) {
	if !PoolingEnabled() {
		t.Skip("pooling disabled")
	}
	r := spillTestRel(segRowsFor(2) + 3*chunkRows)
	sa, err := r.ParkTo(t.TempDir())
	if err != nil || sa == nil {
		t.Fatalf("park failed: %v", err)
	}
	defer sa.Remove()

	ResetPoolStats()
	it := r.Iter()
	drainChunks(t, it)
	it.Close()
	it = r.Iter()
	it.Next()
	it.Close()
	it.Close()
	r.Iter().Close()
	if st := PoolStats(); st.Gets != st.Puts {
		t.Fatalf("arena pool out of balance after segment reads: gets=%d puts=%d (discards=%d)", st.Gets, st.Puts, st.Discards)
	}
}
