package relation

import (
	"fmt"

	"coverpack/internal/hypergraph"
)

// Instance is a database instance of a join query: one relation per
// hyperedge, schema equal to the edge's attribute set (Section 1.1).
type Instance struct {
	Query     *hypergraph.Query
	Relations []*Relation // indexed by edge
}

// NewInstance allocates an empty instance for the query.
func NewInstance(q *hypergraph.Query) *Instance {
	rels := make([]*Relation, q.NumEdges())
	for e := 0; e < q.NumEdges(); e++ {
		rels[e] = New(NewSchema(q.EdgeVars(e).Attrs()...))
	}
	return &Instance{Query: q, Relations: rels}
}

// Rel returns the relation of edge e.
func (in *Instance) Rel(e int) *Relation { return in.Relations[e] }

// RelByName returns the relation for the named edge, or nil.
func (in *Instance) RelByName(name string) *Relation {
	i := in.Query.EdgeIndex(name)
	if i < 0 {
		return nil
	}
	return in.Relations[i]
}

// N returns max_e |R(e)|, the paper's input size parameter.
func (in *Instance) N() int {
	n := 0
	for _, r := range in.Relations {
		if r.Len() > n {
			n = r.Len()
		}
	}
	return n
}

// TotalTuples returns Σ_e |R(e)|.
func (in *Instance) TotalTuples() int {
	n := 0
	for _, r := range in.Relations {
		n += r.Len()
	}
	return n
}

// Validate checks schema/arity consistency.
func (in *Instance) Validate() error {
	if len(in.Relations) != in.Query.NumEdges() {
		return fmt.Errorf("relation: instance has %d relations for %d edges",
			len(in.Relations), in.Query.NumEdges())
	}
	for e, r := range in.Relations {
		want := NewSchema(in.Query.EdgeVars(e).Attrs()...)
		if !r.Schema().Equal(want) {
			return fmt.Errorf("relation: edge %s schema %v, want %v",
				in.Query.Edge(e).Name, r.Schema(), want)
		}
	}
	return nil
}

// Clone deep-copies the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Query: in.Query, Relations: make([]*Relation, len(in.Relations))}
	for i, r := range in.Relations {
		out.Relations[i] = r.Clone()
	}
	return out
}

// Join computes the full join result sequentially (the correctness
// oracle for every MPC algorithm in this repository). It semi-join
// reduces first when the query is acyclic so that the oracle stays
// feasible on instances whose intermediate joins would otherwise blow
// up, then folds relations in a connectivity-aware order.
func (in *Instance) Join() *Relation {
	rels := make([]*Relation, len(in.Relations))
	for i, r := range in.Relations {
		rels[i] = r.Dedup()
	}
	if tree, ok := hypergraph.GYO(in.Query); ok {
		rels = semiJoinReduce(in.Query, tree, rels)
	}
	remaining := make([]int, len(rels))
	for i := range remaining {
		remaining[i] = i
	}
	if len(remaining) == 0 {
		return New(NewSchema())
	}
	acc := rels[remaining[0]]
	accSchema := acc.Schema()
	used := map[int]bool{remaining[0]: true}
	for len(used) < len(rels) {
		// Prefer a relation sharing attributes with the accumulator to
		// avoid needless Cartesian blowup; fall back to any.
		next := -1
		for i := range rels {
			if used[i] {
				continue
			}
			if len(accSchema.Common(rels[i].Schema())) > 0 {
				next = i
				break
			}
		}
		if next == -1 {
			for i := range rels {
				if !used[i] {
					next = i
					break
				}
			}
		}
		acc = acc.Join(rels[next])
		accSchema = acc.Schema()
		used[next] = true
	}
	return acc
}

// JoinSize returns |Q(R)|, saturating at math.MaxInt64, without
// materializing when the query is acyclic (Yannakakis-style counting
// over a join tree; see Counter).
func (in *Instance) JoinSize() int64 { return JoinSizeOf(in.Relations) }

// JoinSizeOf returns the natural-join size of an ad-hoc list of
// relations (duplicates within each relation are ignored; 0-ary
// relations act as presence markers — nonempty: neutral, empty:
// annihilating). It compiles a Counter for the list's schemas and runs
// it once; callers counting many lists of one shape compile once
// themselves.
func JoinSizeOf(rels []*Relation) int64 {
	schemas := make([]Schema, len(rels))
	for i, r := range rels {
		schemas[i] = r.schema
	}
	return NewCounter(schemas).Count(rels)
}

// semiJoinReduce removes all dangling tuples with two passes of
// semi-joins over the join tree (Yannakakis phase 1; the paper's
// Section 2 "Semi-Join" primitive composed leaf-to-root and back).
func semiJoinReduce(q *hypergraph.Query, tree *hypergraph.JoinTree, rels []*Relation) []*Relation {
	out := make([]*Relation, len(rels))
	copy(out, rels)
	// Bottom-up: parent ⋉ child after child is fully reduced.
	var up func(e int)
	up = func(e int) {
		for _, c := range tree.Children(e) {
			up(c)
			out[e] = out[e].SemiJoin(out[c])
		}
	}
	// Top-down: child ⋉ parent.
	var down func(e int)
	down = func(e int) {
		for _, c := range tree.Children(e) {
			out[c] = out[c].SemiJoin(out[e])
			down(c)
		}
	}
	for _, root := range tree.Roots() {
		up(root)
		down(root)
	}
	return out
}

// SemiJoinReduce returns a copy of the instance with dangling tuples
// removed; it requires an acyclic query.
func (in *Instance) SemiJoinReduce() (*Instance, error) {
	tree, ok := hypergraph.GYO(in.Query)
	if !ok {
		return nil, fmt.Errorf("relation: semi-join reduction needs an acyclic query, %s is cyclic", in.Query.Name())
	}
	rels := make([]*Relation, len(in.Relations))
	for i, r := range in.Relations {
		rels[i] = r.Dedup()
	}
	return &Instance{Query: in.Query, Relations: semiJoinReduce(in.Query, tree, rels)}, nil
}
