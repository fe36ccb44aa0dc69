package relation

import "fmt"

// This file holds the local (single-server) operators. The MPC
// algorithms compose them with communication primitives; the sequential
// oracle in instance.go composes them directly. The filters, Dedup and
// Join are the kernels of kernels.go run over one relation.
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

// ProjectTo projects onto a prebuilt schema — ProjectStep over r alone,
// for callers that hoist the NewSchema call (sort + position map) out of
// a loop. A missing attribute panics whether or not any rows exist.
func (r *Relation) ProjectTo(schema Schema) *Relation {
	return one(r, ProjectStep(r.schema, schema))
}

// SelectEq returns the tuples with value v at attribute a.
func (r *Relation) SelectEq(a int, v Value) *Relation {
	return one(r, SelectEqStep(r.schema, a, v))
}

// SelectGt returns the tuples whose value at attribute a exceeds v.
func (r *Relation) SelectGt(a int, v Value) *Relation {
	return one(r, SelectGtStep(r.schema, a, v))
}

// SelectIn returns the tuples whose value at attribute a is in set, or,
// when in is false, is not in set.
func (r *Relation) SelectIn(a int, set map[Value]bool, in bool) *Relation {
	return one(r, SelectInStep(r.schema, a, set, in))
}

// selectPos resolves a selection attribute, panicking when it is not in
// the schema.
func (s Schema) selectPos(op string, a int) int {
	p := s.Pos(a)
	if p < 0 {
		panic(fmt.Sprintf("relation: %s attribute %d not in schema %v", op, a, s))
	}
	return p
}

// SelectEqProject is SelectEq(a, v).Project(attrs...) in one pass: the
// mark pass lists the rows with v at a, and only their projected columns
// are copied into the exactly sized output — no wide SelectEq
// intermediate. Panics match the two operators': the selection attribute
// is checked first, then every projection attribute, even when no row
// survives.
func (r *Relation) SelectEqProject(a int, v Value, attrs ...int) *Relation {
	sel := SelectEqStep(r.schema, a, v)
	return one(r, selectProject{sel: sel, proj: ProjectStep(r.schema, NewSchema(attrs...))})
}

// selectProject is SelectEqProject's step: Filter's marks, Project's
// columns of the marked rows.
type selectProject struct {
	sel  Filter
	proj Project
}

func (s selectProject) Schema() Schema { return s.proj.out }

func (s selectProject) Scratch(i int, in *Relation) int { return s.sel.Scratch(i, in) }

func (s selectProject) Count(i int, in *Relation, sel []Value) int { return s.sel.Count(i, in, sel) }

func (s selectProject) Fill(_ int, in *Relation, sel, dst []Value, rows int) {
	k := 0
	for _, i := range sel[:rows] {
		t := in.data[int(i)*in.arity:]
		for _, p := range s.proj.pos {
			dst[k] = t[p]
			k++
		}
	}
}

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
