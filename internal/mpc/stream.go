package mpc

import "coverpack/internal/relation"

// Streaming entry points. Exchanges remain materialization points —
// every fragment that crosses a communication boundary is a fully
// materialized Relation, so the per-round received-unit accounting and
// the recorded traces are identical with streaming on or off. What
// streams is the free, untraced work around the exchanges: per-server
// local transforms.

// LocalStream is Local with a streaming per-server transform: f
// receives an iterator over the server's fragment and returns the
// pipeline to drain; the result is materialized per fragment (the
// next exchange needs a Relation). Under a parallel cluster the
// per-server pipelines may run concurrently, so f must be pure like a
// Local closure.
func (g *Group) LocalStream(d *DistRelation, f func(server int, it relation.RowIterator) relation.RowIterator) *DistRelation {
	if len(d.Frags) != g.size {
		panic("mpc: LocalStream on relation of mismatched group size")
	}
	out := &DistRelation{Frags: make([]*relation.Relation, g.size)}
	run := func(i int) { out.Frags[i] = relation.Materialize(f(i, d.Frags[i].Iter())) }
	g.forEach(d.Len(), g.size, run)
	out.Schema = out.Frags[g.size-1].Schema()
	return out
}
