// Package plan is the process-wide compiled-plan cache: a bounded LRU
// of per-shape entries keyed on the canonical form of a query's
// hypergraph (internal/hypergraph.Canon), so isomorphic queries —
// renamed catalog queries, per-run residual subqueries, repeated
// requests to a join service — share one compilation instead of
// re-running classification, LP solves, and join-tree search. It is
// the only compile memo, and it is always on: a query too large to
// canonicalize (over CanonMaxAttrs or CanonMaxEdges) is declined by
// For and compiled directly, uncached.
//
// Artifacts divide into two invariance classes:
//
//   - Shape-invariant values (ρ*, τ*, ψ*, class flags, algorithm
//     picks) are identical for every member of the isomorphism class
//     and are shared freely through the Invariant slots.
//   - Labeling-equivariant artifacts (join-tree parent arrays,
//     integral cover edge sets) are stored in canonical coordinates
//     and sub-keyed by the querying form's permutation signature, then
//     remapped back through the isomorphism on every hit. Sub-keying
//     means a hit is only served to queries whose edge structure is
//     identical to the seed's (they differ at most in names), so the
//     remapped artifact is byte-for-byte what direct computation
//     produces — the cache can never change a report, a trace, or a
//     table. Queries embedded differently (e.g. a rotated cycle) seed
//     their own sub-slot while still sharing every invariant.
//
// Entries are found by the query's fingerprint (name and textual
// form), so a query mutated after a lookup resolves afresh; there is
// no index keyed on the *Query pointer. The tests compare every slot
// the engine reads with the direct function it memoizes.
package plan

import (
	"container/list"
	"sync"

	"coverpack/internal/hypergraph"
)

// maxEntries bounds the number of retained shapes; inserting past it
// evicts the least recently used entry. maxFingerprints bounds the
// fingerprint -> entry fast path (cleared wholesale on overflow).
// Variables only so the tests
// can shrink them; never reassigned outside tests.
var (
	maxEntries      = 512
	maxFingerprints = 8192
)

// Stats snapshots the compile-cache counters.
type Stats struct {
	// Hits and Misses count Invariant slot lookups; IsoHits is the
	// subset of Hits served to a fingerprint other than the one that
	// seeded the entry (isomorphic sharing at work).
	Hits, Misses, IsoHits uint64
	// EquivHits and EquivMisses count equivariant (join tree, cover)
	// slot lookups.
	EquivHits, EquivMisses uint64
	// Evictions counts LRU entry evictions.
	Evictions uint64
	// Entries is the current shape count.
	Entries int
}

// entry is one cached canonical shape.
type entry struct {
	key    string
	seedFP string         // fingerprint that created the entry
	inv    map[string]any // invariant slot -> value
	equiv  map[string]any // slot + "\x00" + perm signature -> value (canonical coords)
	elem   *list.Element
	dead   bool
}

type fpRef struct {
	e  *entry
	cf *hypergraph.CanonicalForm
}

var (
	mu    sync.Mutex
	byKey = make(map[string]*entry)
	lru   = list.New() // front = most recent; values are *entry
	byFP  = make(map[string]fpRef)

	hits, misses, isoHits  uint64
	equivHits, equivMisses uint64
	evictions              uint64
)

// Reset drops every entry and zeroes the counters (test seam).
func Reset() {
	mu.Lock()
	byKey = make(map[string]*entry)
	byFP = make(map[string]fpRef)
	lru.Init()
	hits, misses, isoHits = 0, 0, 0
	equivHits, equivMisses = 0, 0
	evictions = 0
	mu.Unlock()
	mEntries.Set(0)
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	mu.Lock()
	defer mu.Unlock()
	return Stats{
		Hits: hits, Misses: misses, IsoHits: isoHits,
		EquivHits: equivHits, EquivMisses: equivMisses,
		Evictions: evictions, Entries: len(byKey),
	}
}

// Handle is one query's view of its shape entry: the entry plus the
// query's own canonical permutations, through which equivariant
// artifacts are remapped.
type Handle struct {
	e  *entry
	cf *hypergraph.CanonicalForm
	fp string
}

// For resolves the shape entry for q, creating it if absent. ok is
// false when the query exceeds the canonical search bounds; callers
// then compute directly.
func For(q *hypergraph.Query) (h Handle, ok bool) {
	mu.Lock()
	fp := q.Name() + "|" + q.String()
	if ref, hit := byFP[fp]; hit && !ref.e.dead {
		lru.MoveToFront(ref.e.elem)
		mu.Unlock()
		return Handle{e: ref.e, cf: ref.cf, fp: fp}, true
	}
	mu.Unlock()

	// Canonicalization runs outside the lock: it is pure and may be
	// repeated by racing goroutines without harm.
	cf := hypergraph.Canon(q)
	if cf == nil {
		return Handle{}, false
	}

	mu.Lock()
	defer mu.Unlock()
	e := byKey[cf.Key]
	if e == nil {
		e = &entry{
			key:    cf.Key,
			seedFP: fp,
			inv:    make(map[string]any),
			equiv:  make(map[string]any),
		}
		e.elem = lru.PushFront(e)
		byKey[cf.Key] = e
		for lru.Len() > maxEntries {
			oldest := lru.Back()
			ev := oldest.Value.(*entry)
			ev.dead = true
			lru.Remove(oldest)
			delete(byKey, ev.key)
			evictions++
			mEvictions.Inc()
		}
		mEntries.Set(int64(len(byKey)))
	} else {
		lru.MoveToFront(e.elem)
	}
	if len(byFP) >= maxFingerprints {
		byFP = make(map[string]fpRef)
	}
	byFP[fp] = fpRef{e: e, cf: cf}
	return Handle{e: e, cf: cf, fp: fp}, true
}

// Key returns the canonical shape key.
func (h Handle) Key() string { return h.e.key }

// Form returns the query's canonical form (shared; do not mutate).
func (h Handle) Form() *hypergraph.CanonicalForm { return h.cf }

// Invariant loads a shape-invariant slot. A hit from a fingerprint
// other than the entry's seed counts as isomorphic sharing.
func (h Handle) Invariant(slot string) (any, bool) {
	mu.Lock()
	v, ok := h.e.inv[slot]
	if ok {
		hits++
		if h.fp != h.e.seedFP {
			isoHits++
		}
	} else {
		misses++
	}
	iso := ok && h.fp != h.e.seedFP
	mu.Unlock()
	if ok {
		mHits.Inc()
		if iso {
			mIsoHits.Inc()
		}
	} else {
		mMisses.Inc()
	}
	return v, ok
}

// SetInvariant stores a shape-invariant slot value. Values must be
// immutable once stored (they are returned to every isomorphic query).
func (h Handle) SetInvariant(slot string, v any) {
	mu.Lock()
	h.e.inv[slot] = v
	mu.Unlock()
}

// equivKey sub-keys equivariant slots by the querying form's
// permutation signature (see CanonicalForm.PermSignature).
func (h Handle) equivKey(slot string) string {
	return slot + "\x00" + h.cf.PermSignature()
}

// equivariant loads an equivariant slot for this handle's embedding.
func (h Handle) equivariant(slot string) (any, bool) {
	mu.Lock()
	v, ok := h.e.equiv[h.equivKey(slot)]
	if ok {
		equivHits++
	} else {
		equivMisses++
	}
	mu.Unlock()
	if ok {
		mEquivHits.Inc()
	} else {
		mEquivMisses.Inc()
	}
	return v, ok
}

func (h Handle) setEquivariant(slot string, v any) {
	mu.Lock()
	h.e.equiv[h.equivKey(slot)] = v
	mu.Unlock()
}

// Join-tree slot. The parent array is stored in canonical edge
// coordinates and remapped through the handle's edge permutation on
// both store and load, so the cached form is embedding-independent
// even though sub-keying restricts reuse to identical embeddings.

type canonTree struct {
	acyclic bool
	parent  []int // canonical edge position -> canonical parent (-1 root)
}

// JoinTree returns the memoized GYO result for q (tree in q's own
// edge coordinates, acyclicity flag) and whether the slot was hit.
func (h Handle) JoinTree(q *hypergraph.Query) (*hypergraph.JoinTree, bool, bool) {
	v, ok := h.equivariant("jointree")
	if !ok {
		return nil, false, false
	}
	ct := v.(canonTree)
	if !ct.acyclic {
		return nil, false, true
	}
	inv := h.cf.InverseEdgePerm()
	parent := make([]int, len(ct.parent))
	for c, pc := range ct.parent {
		if pc < 0 {
			parent[inv[c]] = -1
		} else {
			parent[inv[c]] = inv[pc]
		}
	}
	return &hypergraph.JoinTree{Query: q, Parent: parent}, true, true
}

// SetJoinTree stores a GYO result; t is nil when the query is cyclic.
func (h Handle) SetJoinTree(t *hypergraph.JoinTree) {
	ct := canonTree{acyclic: t != nil}
	if t != nil {
		ct.parent = make([]int, len(t.Parent))
		for e, p := range t.Parent {
			if p < 0 {
				ct.parent[h.cf.EdgePerm[e]] = -1
			} else {
				ct.parent[h.cf.EdgePerm[e]] = h.cf.EdgePerm[p]
			}
		}
	}
	h.setEquivariant("jointree", ct)
}

// Cover returns the memoized integral edge cover in q's own edge
// coordinates.
func (h Handle) Cover() (hypergraph.EdgeSet, bool) {
	v, ok := h.equivariant("cover")
	if !ok {
		return hypergraph.EdgeSet{}, false
	}
	inv := h.cf.InverseEdgePerm()
	var out hypergraph.EdgeSet
	for _, c := range v.(hypergraph.EdgeSet).Edges() {
		out.Add(inv[c])
	}
	return out, true
}

// SetCover stores an integral edge cover (in q's edge coordinates;
// converted to canonical positions internally).
func (h Handle) SetCover(es hypergraph.EdgeSet) {
	var canon hypergraph.EdgeSet
	for _, e := range es.Edges() {
		canon.Add(h.cf.EdgePerm[e])
	}
	h.setEquivariant("cover", canon)
}

// GYO is hypergraph.GYO routed through the shape cache: repeated
// queries (and renamed isomorphic ones) skip the reduction entirely.
func GYO(q *hypergraph.Query) (*hypergraph.JoinTree, bool) {
	h, ok := For(q)
	if !ok {
		return hypergraph.GYO(q)
	}
	if t, acyclic, hit := h.JoinTree(q); hit {
		return t, acyclic
	}
	t, acyclic := hypergraph.GYO(q)
	if acyclic {
		h.SetJoinTree(t)
	} else {
		h.SetJoinTree(nil)
	}
	return t, acyclic
}

// Acyclic is q.IsAcyclic() through the shape cache.
func Acyclic(q *hypergraph.Query) bool {
	_, ok := GYO(q)
	return ok
}
