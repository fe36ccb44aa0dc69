package relation

// Iter, Materialize and StreamJoin have no engine caller: they stay
// because internal/bench's stream_join row names them, and ROADMAP
// item 1 deletes them with that row.

// RowIterator is a resident relation handed out by Iter.
type RowIterator struct{ r *Relation }

// Iter wraps the relation for Materialize and StreamJoin.
func (r *Relation) Iter() RowIterator { return RowIterator{r} }

// Materialize returns the relation the iterator wraps.
func Materialize(it RowIterator) *Relation { return it.r }

// StreamJoin is src ⋈ s behind an iterator: it has no effect beyond
// Join.
func StreamJoin(src RowIterator, s *Relation) RowIterator { return src.r.Join(s).Iter() }
