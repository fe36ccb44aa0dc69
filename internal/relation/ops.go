package relation

import "fmt"

// This file holds the local (single-server) operators. The MPC
// algorithms compose them with communication primitives; the sequential
// oracle in instance.go composes them directly. The filters, Dedup and
// Join are the block kernels of parallel.go run over one block.
//
// Every keyed operator (dedup, semi-join, hash join) probes an
// internal/hashtab table keyed on projected arena columns — no
// per-tuple key strings. Output orders are identical to the historical
// map[string] implementations because hashtab entries enumerate in
// first-insert order and probes scan input order.

// Project returns the projection onto the given attributes (multiset —
// no dedup; call Dedup for set semantics).
func (r *Relation) Project(attrs ...int) *Relation {
	return r.ProjectTo(NewSchema(attrs...))
}

// ProjectTo projects onto a prebuilt schema — the allocation-free
// entry for per-fragment loops, which hoist the NewSchema call (sort +
// position map) out of the loop and reuse one schema for every
// fragment.
func (r *Relation) ProjectTo(schema Schema) *Relation {
	out := New(schema)
	if r.rows == 0 {
		// Still validate: a missing attribute must panic regardless of
		// whether any rows exist.
		for i := 0; i < schema.Len(); i++ {
			if a := schema.Attr(i); r.schema.Pos(a) < 0 {
				panic(fmt.Sprintf("relation: Project attribute %d not in schema %v", a, r.schema))
			}
		}
		return out
	}
	pos := make([]int, schema.Len())
	for i := range pos {
		a := schema.Attr(i)
		p := r.schema.Pos(a)
		if p < 0 {
			panic(fmt.Sprintf("relation: Project attribute %d not in schema %v", a, r.schema))
		}
		pos[i] = p
	}
	out.Grow(r.rows)
	for i := 0; i < r.rows; i++ {
		t := r.Row(i)
		for _, p := range pos {
			out.data = append(out.data, t[p])
		}
		out.rows++
	}
	return out
}

// SelectEq returns the tuples with value v at attribute a.
func (r *Relation) SelectEq(a int, v Value) *Relation {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: SelectEq attribute %d not in schema %v", a, r.schema))
	}
	return r.filterRows(rowPred{col: p, v: v}, nil)
}

// SelectGt returns the tuples whose value at attribute a exceeds v.
func (r *Relation) SelectGt(a int, v Value) *Relation {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: SelectGt attribute %d not in schema %v", a, r.schema))
	}
	return r.filterRows(rowPred{col: p, v: v, gt: true}, nil)
}

// Dedup returns the relation with duplicate tuples removed, in
// first-seen order.
func (r *Relation) Dedup() *Relation { return r.DedupPar(nil) }

// SemiJoin returns the tuples of r that agree with at least one tuple of
// s on their common attributes (r ⋉ s); see SemiJoinPar.
func (r *Relation) SemiJoin(s *Relation) *Relation { return r.SemiJoinPar(s, nil) }

// Join returns the natural join r ⋈ s; see JoinPar.
func (r *Relation) Join(s *Relation) *Relation { return r.JoinPar(s, nil) }

// DistinctValues returns the set of values of attribute a. The int64-
// keyed map allocates no key strings; callers needing deterministic
// order must sort (map iteration order is randomized).
func (r *Relation) DistinctValues(a int) map[Value]bool {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: DistinctValues attribute %d not in schema %v", a, r.schema))
	}
	out := make(map[Value]bool)
	for i := 0; i < r.rows; i++ {
		out[r.Row(i)[p]] = true
	}
	return out
}
