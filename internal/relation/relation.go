// Package relation provides the tuple-level data model used by the MPC
// simulator and algorithms: schemas over query attributes, relations as
// tuple sets, and the local operators (projection, selection, semi-join,
// hash join, grouping) that servers run between communication rounds.
//
// Values are int64; attribute identities come from the owning
// hypergraph.Query, so a tuple's meaning is always relative to a schema.
// Tuples are treated as atomic units per the paper's tuple-based model:
// operators copy tuples, never invent values.
//
// # Storage layout
//
// A Relation stores its rows in a single flat []Value arena, strided by
// the schema arity: row i occupies data[i*arity : (i+1)*arity]. Tuples
// handed out by Row and Tuples are views into that arena — cheap slice
// headers, not per-row heap objects. Views are invalidated by any
// mutation that can reallocate or reorder the arena (Add, AddValues,
// Append, Grow past capacity, Sort, SortBy): callers must not hold a
// view across such a call on the same relation. Reading one relation
// while appending to a different one is always safe. See DESIGN.md,
// "Storage layout and hashing".
package relation

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Value is a single attribute value.
type Value = int64

// Tuple is a value assignment, ordered by its Schema's attribute order.
// Tuples obtained from a Relation are views into its arena; see the
// package comment for the invalidation rules.
type Tuple []Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports whether two tuples hold the same values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Schema is an ordered list of attribute ids (ascending).
type Schema struct {
	attrs []int
}

// NewSchema builds a schema over the given attribute ids; duplicates are
// collapsed and order normalized ascending. The one copy of attrs is
// sorted and deduplicated in place, so it is the schema's only allocation.
func NewSchema(attrs ...int) Schema {
	sorted := append([]int(nil), attrs...)
	slices.Sort(sorted)
	return Schema{attrs: slices.Clip(slices.Compact(sorted))}
}

// Attrs returns the attribute ids in schema order.
func (s Schema) Attrs() []int { return append([]int(nil), s.attrs...) }

// Attr returns the attribute id at index i without allocating — the
// per-call accessor for hot loops that would otherwise copy the whole
// attribute slice via Attrs.
func (s Schema) Attr(i int) int { return s.attrs[i] }

// Len returns the arity.
func (s Schema) Len() int { return len(s.attrs) }

// Pos returns the index of attribute a in tuples of this schema, or -1:
// a scan of the sorted ids, a binary search above 8 of them.
func (s Schema) Pos(a int) int {
	if len(s.attrs) > 8 {
		if i, ok := slices.BinarySearch(s.attrs, a); ok {
			return i
		}
		return -1
	}
	for i, b := range s.attrs {
		if b == a {
			return i
		}
		if b > a {
			break
		}
	}
	return -1
}

// Has reports whether the schema contains attribute a.
func (s Schema) Has(a int) bool { return s.Pos(a) >= 0 }

// Equal reports whether two schemas list the same attributes.
func (s Schema) Equal(o Schema) bool {
	if len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// Common returns the attribute ids shared with o, ascending.
func (s Schema) Common(o Schema) []int {
	var out []int
	for _, a := range s.attrs {
		if o.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Union returns the schema over the union of attributes: one merge of
// the two sorted lists into one allocation.
func (s Schema) Union(o Schema) Schema {
	a, b := s.attrs, o.attrs
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(append(out, a...), b...)
	return Schema{attrs: out}
}

// String renders the schema as (a0,a1,...) with raw ids.
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", a)
	}
	b.WriteByte(')')
	return b.String()
}

// Relation is a multiset of tuples under one schema, stored in a flat
// arity-strided []Value arena. Operators that require set semantics
// (semi-join probe sides, dedup) say so.
type Relation struct {
	schema Schema
	arity  int
	data   []Value // row i at data[i*arity : (i+1)*arity]
	rows   int     // row count (len(data)/arity, tracked for arity 0)

	// first is the retained FirstRows list of the current content:
	// mutators drop it, and no other index outlives the call that built
	// it. See index.go. An atomic pointer so that runs sharing an
	// immutable input list it race-free.
	first atomic.Pointer[[]int32]
}

// New returns an empty relation with the given schema.
func New(schema Schema) *Relation {
	return &Relation{schema: schema, arity: schema.Len()}
}

// NewSlab returns n empty relations over schema backed by shared
// allocations: one slab of Relation structs, and (when perHint > 0)
// one arena block pre-partitioned so each relation holds perHint rows
// before its first growth. The per-relation arena slices are capacity-
// capped at their partition, so a relation that outgrows its hint
// reallocates independently and can never write into a neighbor's
// region. This is the constructor for exchange fan-outs, where the
// per-destination `make` calls otherwise dominate the allocation
// profile.
func NewSlab(schema Schema, n, perHint int) []*Relation {
	arity := schema.Len()
	slab := make([]Relation, n)
	out := make([]*Relation, n)
	var blob []Value
	if perHint > 0 && arity > 0 {
		blob = make([]Value, n*perHint*arity)
	}
	for i := range slab {
		slab[i] = Relation{schema: schema, arity: arity}
		if blob != nil {
			lo := i * perHint * arity
			slab[i].data = blob[lo : lo : lo+perHint*arity]
		}
		out[i] = &slab[i]
	}
	return out
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.rows }

// Row returns tuple i as a view into the arena. The view is capped at
// the row boundary, so appending to it cannot corrupt neighbors; it is
// invalidated by arena-mutating calls (see the package comment).
func (r *Relation) Row(i int) Tuple {
	return r.data[i*r.arity : (i+1)*r.arity : (i+1)*r.arity]
}

// Tuples materializes one view per row. It allocates the header slice
// on every call — hot loops should index with Row instead. The views
// follow the arena invalidation rules of the package comment.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.rows)
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

// Data exposes the backing arena (row-major, arity-strided). Callers
// must treat it as read-only; it is the zero-copy path for bulk
// concatenation and hashing.
func (r *Relation) Data() []Value {
	return r.data
}

// Add appends a copy of the tuple; it must match the schema arity.
func (r *Relation) Add(t Tuple) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: tuple arity %d != schema arity %d", len(t), r.arity))
	}
	r.invalidate()
	r.data = append(r.data, t...)
	r.rows++
}

// AddValues appends a tuple given values in schema order.
func (r *Relation) AddValues(vals ...Value) { r.Add(Tuple(vals)) }

// Append bulk-appends tuples from another relation with an equal schema.
func (r *Relation) Append(o *Relation) {
	if !r.schema.Equal(o.schema) {
		panic("relation: Append schema mismatch")
	}
	r.invalidate()
	r.data = append(r.data, o.data...)
	r.rows += o.rows
}

// Clone returns a deep copy (one arena allocation).
func (r *Relation) Clone() *Relation {
	out := New(r.schema)
	out.data = append(make([]Value, 0, len(r.data)), r.data...)
	out.rows = r.rows
	return out
}

// Get returns the value of attribute a in tuple t under this relation's
// schema.
func (r *Relation) Get(t Tuple, a int) Value {
	p := r.schema.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: attribute %d not in schema %v", a, r.schema))
	}
	return t[p]
}

// Key encodes the projection of t onto the given schema positions as a
// compact string usable as a hash key.
//
// This is the legacy keyed path: hot loops hash projections directly
// with internal/hashtab, no string materialization. Routing uses
// hashtab.Hash, the same FNV-64a over the same big-endian bytes, so Key
// remains the wire/debug encoding and the reference the routing
// equivalence tests compare hashtab.Hash against. The hash tables use
// their own private hash, which Key has no counterpart for.
func Key(t Tuple, positions []int) string {
	buf := make([]byte, 8*len(positions))
	for i, p := range positions {
		binary.BigEndian.PutUint64(buf[8*i:], uint64(t[p]))
	}
	return string(buf)
}

// DecodeKey inverts Key: it unpacks an encoded key back into the
// projected values. ok is false when the string is not a multiple of
// the 8-byte value width (i.e. not a Key output). The empty key decodes
// to an empty value list — the valid encoding of a 0-ary projection.
func DecodeKey(key string) (vals []Value, ok bool) {
	if len(key)%8 != 0 {
		return nil, false
	}
	vals = make([]Value, len(key)/8)
	for i := range vals {
		// Big-endian decode by direct string indexing; converting each
		// chunk through []byte(key[...]) would allocate per chunk.
		var v uint64
		for j := 0; j < 8; j++ {
			v = v<<8 | uint64(key[8*i+j])
		}
		vals[i] = Value(v)
	}
	return vals, true
}

// Positions resolves the named attributes to tuple positions under this
// schema, panicking on a missing attribute. Precomputing positions once
// and hashing rows directly (hashtab) avoids per-tuple attribute
// resolution and string building in hot loops.
func (s Schema) Positions(attrs []int) []int {
	return s.AppendPositions(make([]int, 0, len(attrs)), attrs)
}

// AppendPositions is Positions appending to dst, for a caller that keeps
// its own position buffer.
func (s Schema) AppendPositions(dst, attrs []int) []int {
	for _, a := range attrs {
		p := s.Pos(a)
		if p < 0 {
			panic(fmt.Sprintf("relation: attribute %d not in schema %v", a, s))
		}
		dst = append(dst, p)
	}
	return dst
}

// identityPositions returns [0, 1, ..., n).
func identityPositions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

// Grow reserves arena capacity for at least n additional tuples.
func (r *Relation) Grow(n int) {
	if need := len(r.data) + n*r.arity; need > cap(r.data) {
		grown := make([]Value, len(r.data), need)
		copy(grown, r.data)
		r.data = grown
	}
}

// FromTuples builds a relation by copying the given tuples into a fresh
// arena. Every tuple must match the schema arity.
func FromTuples(schema Schema, tuples []Tuple) *Relation {
	out := New(schema)
	out.Grow(len(tuples))
	for _, t := range tuples {
		out.Add(t)
	}
	return out
}

// FromData wraps an existing row-major arena as a relation, taking
// ownership of the slice. rows must equal len(data)/arity (rows is
// explicit so 0-ary relations keep their multiplicity); this is the
// zero-copy assembly path for the kernels' exactly sized outputs and
// engine-internal concatenation.
func FromData(schema Schema, data []Value, rows int) *Relation {
	if arity := schema.Len(); arity*rows != len(data) {
		panic(fmt.Sprintf("relation: FromData arena length %d != %d rows × arity %d", len(data), rows, arity))
	}
	return &Relation{schema: schema, arity: schema.Len(), data: data, rows: rows}
}

// Sort orders tuples lexicographically in place (for deterministic
// output and comparisons).
func (r *Relation) Sort() {
	r.sortByPositions(identityPositions(r.arity))
}

// SortBy stably orders tuples in place by the given schema positions;
// rows that compare equal on the positions keep their relative order
// (the in-place successor of sorting a materialized []Tuple with
// sort.SliceStable).
func (r *Relation) SortBy(pos []int) { r.sortByPositions(pos) }

// sortByPositions sorts via a row-index permutation (sortPerm) and one
// pass applying it into a fresh arena. Already-sorted inputs skip the
// permutation and arena copy entirely, leaving the arena and the
// retained FirstRows list untouched.
func (r *Relation) sortByPositions(pos []int) {
	if r.rows < 2 || r.arity == 0 || len(pos) == 0 {
		return
	}
	perm := r.sortPerm(pos)
	if perm == nil {
		return
	}
	r.data = r.gather(perm)
	r.invalidate()
}

// sortPerm returns the stable sorted row permutation of the resident
// arena on the given positions, or nil when the rows are already in
// order — one linear scan, common for fragments an exchange left in key
// order. Rows equal on pos are ordered by index, so the order is total
// and the one permutation it admits is the stable one, which pattern-
// defeating quicksort finds in O(n log n) comparisons.
func (r *Relation) sortPerm(pos []int) []int32 {
	if r.sorted(pos) {
		return nil
	}
	perm := identityPerm(r.rows)
	slices.SortFunc(perm, func(a, b int32) int {
		if c := r.compareRowsAt(int(a), int(b), pos); c != 0 {
			return c
		}
		return int(a - b)
	})
	return perm
}

// sorted reports whether every row is ≥ its predecessor on the given
// positions.
func (r *Relation) sorted(pos []int) bool {
	for i := 1; i < r.rows; i++ {
		if r.compareRowsAt(i-1, i, pos) > 0 {
			return false
		}
	}
	return true
}

// compareRowsAt compares rows i and j of r on the given positions.
func (r *Relation) compareRowsAt(i, j int, pos []int) int {
	a := r.data[i*r.arity:]
	b := r.data[j*r.arity:]
	for _, p := range pos {
		if a[p] != b[p] {
			if a[p] < b[p] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Equal reports whether two relations hold the same multiset of tuples
// under equal schemas (order-insensitive).
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.rows != o.rows {
		return false
	}
	a, b := r.Clone(), o.Clone()
	a.Sort()
	b.Sort()
	return slices.Equal(a.data, b.data)
}

// String renders up to 20 tuples for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Relation%v |%d|", r.schema, r.rows)
	for i := 0; i < r.rows; i++ {
		if i >= 20 {
			b.WriteString(" ...")
			break
		}
		fmt.Fprintf(&b, " %v", []Value(r.Row(i)))
	}
	return b.String()
}
