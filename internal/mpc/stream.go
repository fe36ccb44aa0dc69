package mpc

import "coverpack/internal/relation"

// Streaming entry points. Exchanges remain materialization points —
// every fragment that crosses a communication boundary is a fully
// materialized Relation, so the per-round received-unit accounting and
// the recorded traces are identical with streaming on or off. What
// streams is the free, untraced work around the exchanges: per-server
// local transforms and the free initial Scatter placement.

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

// ScatterDedup scatters the distinct rows of r round-robin over the
// group — Scatter(r.Dedup()) without materializing the deduplicated
// intermediate when streaming is on. Placement is identical to the
// materialized form (row i of the deduplicated order lands on server
// i mod size), and Scatter stays free and untraced either way.
func (g *Group) ScatterDedup(r *relation.Relation) *DistRelation {
	// A large input on a parallel cluster dedups faster materialized
	// through the partitioned kernel than through the streaming
	// iterator; the deduplicated order (first-seen) — and therefore
	// round-robin placement — is identical on every path.
	if g.cluster.workers > 1 && r.Len() >= relation.ParCutoff {
		return g.Scatter(r.DedupPar(g))
	}
	if !g.Streaming() {
		return g.Scatter(r.Dedup())
	}
	// The distinct count is known only when the stream ends, so this
	// placement cannot count first: it appends into fragments sized for
	// an even share of the input, which no fragment can exceed.
	it := r.DedupIter()
	frags, blob := relation.NewSlabArena(r.Schema(), g.size, r.Len()/g.size+1)
	g.cluster.trackArena(blob)
	d := &DistRelation{Schema: r.Schema(), Frags: frags}
	i := 0
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		for j := 0; j < c.Len(); j++ {
			d.Frags[i%g.size].Add(c.Row(j))
			i++
		}
	}
	it.Close()
	return d
}
