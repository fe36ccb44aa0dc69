package relation

// Iter, Materialize, StreamJoin, JoinPar and SortByPar have no engine
// caller: they stay because internal/bench's stream_join and *_par rows
// name them, and go with those rows when the benchmark contract reopens
// (ROADMAP, Parked).

// RowIterator is a resident relation handed out by Iter.
type RowIterator struct{ r *Relation }

// Iter wraps the relation for Materialize and StreamJoin.
func (r *Relation) Iter() RowIterator { return RowIterator{r} }

// Materialize returns the relation the iterator wraps.
func Materialize(it RowIterator) *Relation { return it.r }

// StreamJoin is src ⋈ s behind an iterator: it has no effect beyond
// Join.
func StreamJoin(src RowIterator, s *Relation) RowIterator { return src.r.Join(s).Iter() }

// JoinPar is Join: a kernel over one fragment runs inline.
func (r *Relation) JoinPar(s *Relation, _ Forker) *Relation { return r.Join(s) }

// SortByPar is SortBy: a kernel over one fragment runs inline.
func (r *Relation) SortByPar(pos []int, _ Forker) { r.SortBy(pos) }
