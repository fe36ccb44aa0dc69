// Package plan is the process-wide compile memo: one entry per query
// shape holding what is compiled from the query's hypergraph (the
// analysis, ψ*, the GYO join tree, the integral cover), so repeated
// queries — catalog queries run again, per-run residual subqueries —
// skip classification, LP solves and join-tree search. It is the only
// compile memo, and it is always on.
//
// An entry is keyed by the query's own edge structure
// (hypergraph.(*Query).AppendShapeKey: the attribute count and every
// edge's attribute-id set, in edge order). The key holds no names and no
// compiled artifact reads one, so queries with equal keys have identical
// id structure and every slot holds, in the querying query's own
// coordinates, exactly what direct computation returns for it: the memo
// can never change a report, a trace or a table. A pure renaming shares
// its entry, because Parse assigns ids by first appearance; a reordered
// or relabeled spelling gets its own. The key is built afresh on every
// lookup, so a query mutated after a lookup resolves to its new shape.
// The tests compare every slot the engine reads with the direct function
// it memoizes.
package plan

import (
	"sync"

	"coverpack/internal/hypergraph"
)

// maxEntries bounds the number of retained shapes; a new shape arriving
// at the bound clears the map wholesale. A variable only so the tests
// can shrink it; never reassigned outside tests.
var maxEntries = 512

// Stats snapshots the compile-memo counters.
type Stats struct {
	// Hits and Misses count slot lookups.
	Hits, Misses uint64
	// IsoHits always reads 0: an entry is shared only by queries with
	// identical edge structure, never across an isomorphism.
	IsoHits uint64
	// Entries is the current shape count.
	Entries int
}

// entry is one cached shape: slot name -> value.
type entry struct {
	slots map[string]any
}

var (
	mu           sync.Mutex
	byKey        = make(map[string]*entry)
	hits, misses uint64
)

// Reset drops every entry and zeroes the counters (test seam).
func Reset() {
	mu.Lock()
	byKey = make(map[string]*entry)
	hits, misses = 0, 0
	mu.Unlock()
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	mu.Lock()
	defer mu.Unlock()
	return Stats{Hits: hits, Misses: misses, Entries: len(byKey)}
}

// Handle is one query's view of its shape entry.
type Handle struct {
	e *entry
}

// For resolves the shape entry for q, creating it if absent. ok is
// always true; every query is cacheable. A lookup of a known shape
// allocates nothing.
func For(q *hypergraph.Query) (h Handle, ok bool) {
	var buf [512]byte
	key := q.AppendShapeKey(buf[:0])
	mu.Lock()
	defer mu.Unlock()
	e := byKey[string(key)]
	if e == nil {
		if len(byKey) >= maxEntries {
			byKey = make(map[string]*entry)
		}
		e = &entry{slots: make(map[string]any)}
		byKey[string(key)] = e
	}
	return Handle{e: e}, true
}

// Invariant loads a slot of the handle's entry.
func (h Handle) Invariant(slot string) (any, bool) {
	mu.Lock()
	v, ok := h.e.slots[slot]
	if ok {
		hits++
	} else {
		misses++
	}
	mu.Unlock()
	return v, ok
}

// SetInvariant stores a slot value. Values must be immutable once stored:
// they are returned to every query of the shape.
func (h Handle) SetInvariant(slot string, v any) {
	mu.Lock()
	h.e.slots[slot] = v
	mu.Unlock()
}

// gyoResult is the join-tree slot: hypergraph.GYO's acyclicity flag and,
// for an acyclic query, its parent array.
type gyoResult struct {
	acyclic bool
	parent  []int
}

// GYO is hypergraph.GYO routed through the shape cache: a repeated shape
// skips the reduction. The returned tree's Parent is shared with the
// cache and must not be mutated.
func GYO(q *hypergraph.Query) (*hypergraph.JoinTree, bool) {
	h, _ := For(q)
	if v, hit := h.Invariant("jointree"); hit {
		r := v.(gyoResult)
		if !r.acyclic {
			return nil, false
		}
		return &hypergraph.JoinTree{Query: q, Parent: r.parent}, true
	}
	t, acyclic := hypergraph.GYO(q)
	r := gyoResult{acyclic: acyclic}
	if acyclic {
		r.parent = t.Parent
	}
	h.SetInvariant("jointree", r)
	return t, acyclic
}

// Acyclic is q.IsAcyclic() through the shape cache.
func Acyclic(q *hypergraph.Query) bool {
	_, ok := GYO(q)
	return ok
}
