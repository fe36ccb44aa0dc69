package hypergraph

import (
	"fmt"
	"strings"
)

// JoinTree is a join tree (or forest) of an α-acyclic query: its nodes
// are in one-to-one correspondence with the relations, and for every
// attribute the nodes containing it form a connected subtree (Section
// 1.4). Parent[i] is the parent edge index of edge i, or -1 for roots.
type JoinTree struct {
	Query  *Query
	Parent []int
}

// GYO runs the Graham–Yu–Özsoyoğlu reduction (Appendix A.1) and, when the
// query is α-acyclic, returns a join tree built from the elimination
// order. The second result reports acyclicity. It is GYOVars over the
// query's edge attribute sets.
func GYO(q *Query) (*JoinTree, bool) {
	vars := make([]VarSet, len(q.edges))
	for i, e := range q.edges {
		vars[i] = e.Vars
	}
	parent, ok := GYOVars(vars)
	if !ok {
		return nil, false
	}
	return &JoinTree{Query: q, Parent: parent}, true
}

// GYOVars is the reduction itself on a bare list of attribute sets —
// no Query, no names — for callers that only have schemas (the compiled
// join-size counter in internal/relation). parent[i] is the index of
// the set that absorbed set i, or -1 for the root of each tree of the
// forest; ok reports α-acyclicity. The input sets are not modified.
//
// The reduction repeats two rules until no rule applies: (1) remove an
// attribute that appears in only one remaining relation; (2) remove a
// relation contained in another remaining relation, attaching it as a
// child of its container in the tree. The list is α-acyclic iff the
// hypergraph empties.
func GYOVars(sets []VarSet) (parent []int, ok bool) {
	n := len(sets)
	vars := make([]VarSet, n)
	var all VarSet
	for i, s := range sets {
		vars[i] = s.Clone()
		all = all.Union(s)
	}
	attrs := all.Attrs()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	remaining := n

	attrDegree := func(a int) (int, int) { // count and last holder
		cnt, holder := 0, -1
		for i := 0; i < n; i++ {
			if alive[i] && vars[i].Contains(a) {
				cnt++
				holder = i
			}
		}
		return cnt, holder
	}

	for remaining > 0 {
		progressed := false
		// Rule 1: drop attributes unique to one remaining relation.
		for _, a := range attrs {
			if cnt, holder := attrDegree(a); cnt == 1 {
				vars[holder].Remove(a)
				progressed = true
			}
		}
		// An edge whose attribute set emptied shares nothing with any
		// living edge (shared attributes persist while both holders
		// live), so it is the last survivor of its connected component:
		// finalize it as a root rather than absorbing it elsewhere, so
		// that disconnected queries yield a forest, one tree per
		// component, as Section 3 requires.
		for i := 0; i < n; i++ {
			if alive[i] && vars[i].IsEmpty() {
				alive[i] = false
				parent[i] = -1
				remaining--
				progressed = true
			}
		}
		// Rule 2: absorb contained relations. Deterministic order: the
		// lowest-index contained edge into its lowest-index container.
		for i := 0; i < n && remaining > 1; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j || !alive[j] {
					continue
				}
				if vars[i].SubsetOf(vars[j]) {
					alive[i] = false
					parent[i] = j
					remaining--
					progressed = true
					break
				}
			}
		}
		if !progressed {
			return nil, false
		}
	}
	return parent, true
}

// IsAcyclic reports whether the query is α-acyclic.
func (q *Query) IsAcyclic() bool {
	_, ok := GYO(q)
	return ok
}

// Validate checks the join-tree property: for every attribute, the edges
// containing it form a connected subtree.
func (t *JoinTree) Validate() error {
	q := t.Query
	n := len(q.edges)
	if len(t.Parent) != n {
		return fmt.Errorf("hypergraph: join tree has %d parents for %d edges", len(t.Parent), n)
	}
	for _, a := range q.AllVars().Attrs() {
		holders := q.EdgesWith(a)
		hs := holders.Edges()
		if len(hs) <= 1 {
			continue
		}
		// The holders must form a connected subgraph under tree links.
		seen := map[int]bool{hs[0]: true}
		queue := []int{hs[0]}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.neighbors(u) {
				if holders.Contains(v) && !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		if len(seen) != len(hs) {
			return fmt.Errorf("hypergraph: attribute %s not connected in join tree", q.AttrName(a))
		}
	}
	return nil
}

func (t *JoinTree) neighbors(e int) []int {
	var out []int
	if p := t.Parent[e]; p >= 0 {
		out = append(out, p)
	}
	for i, p := range t.Parent {
		if p == e {
			out = append(out, i)
		}
	}
	return out
}

// Children returns the child edge indices of e, in ascending order.
func (t *JoinTree) Children(e int) []int {
	var out []int
	for i, p := range t.Parent {
		if p == e {
			out = append(out, i)
		}
	}
	return out
}

// Roots returns the root edge index of each connected subtree.
func (t *JoinTree) Roots() []int {
	var out []int
	for i, p := range t.Parent {
		if p == -1 {
			out = append(out, i)
		}
	}
	return out
}

// Leaves returns the edges with no children (a root counts as a leaf if
// it is isolated). For single-relation trees the lone edge is a leaf.
func (t *JoinTree) Leaves() []int {
	hasChild := make([]bool, len(t.Parent))
	for _, p := range t.Parent {
		if p >= 0 {
			hasChild[p] = true
		}
	}
	var out []int
	for i := range t.Parent {
		if !hasChild[i] {
			out = append(out, i)
		}
	}
	return out
}

// ConnectedComponentsOn returns T[S]: the maximal connected components of
// the edge subset S *on the join tree* (Definition 3.1 uses this to define
// sub-joins; Example 3.2 illustrates how it differs from hypergraph
// connectivity).
func (t *JoinTree) ConnectedComponentsOn(s EdgeSet) []EdgeSet {
	idx := s.Edges()
	pos := make(map[int]int, len(idx))
	for i, e := range idx {
		pos[e] = i
	}
	parent := make([]int, len(idx))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for _, e := range idx {
		p := t.Parent[e]
		if p >= 0 && s.Contains(p) {
			ra, rb := find(pos[e]), find(pos[p])
			if ra != rb {
				if ra > rb {
					ra, rb = rb, ra
				}
				parent[rb] = ra
			}
		}
	}
	groups := make(map[int]*EdgeSet)
	var order []int
	for i, e := range idx {
		r := find(i)
		g, ok := groups[r]
		if !ok {
			g = &EdgeSet{}
			groups[r] = g
			order = append(order, r)
		}
		g.Add(e)
	}
	out := make([]EdgeSet, 0, len(order))
	for _, r := range order {
		out = append(out, *groups[r])
	}
	return out
}

// RemoveEdges returns a new join tree over the same query with the given
// edges detached: children of removed edges are re-rooted, and removed
// edges get parent -2 (the caller should not use them). It mirrors the
// paper's T' obtained "by removing nodes in S from T".
func (t *JoinTree) RemoveEdges(s EdgeSet) *JoinTree {
	out := &JoinTree{Query: t.Query, Parent: append([]int(nil), t.Parent...)}
	for i := range out.Parent {
		if s.Contains(i) {
			out.Parent[i] = -2
			continue
		}
		// Walk up past removed ancestors.
		p := t.Parent[i]
		for p >= 0 && s.Contains(p) {
			p = t.Parent[p]
		}
		out.Parent[i] = p
	}
	return out
}

// String renders the forest with indentation.
func (t *JoinTree) String() string {
	var b strings.Builder
	var walk func(e, depth int)
	walk = func(e, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		edge := t.Query.edges[e]
		b.WriteString(edge.Name)
		b.WriteString(t.Query.FormatVars(edge.Vars))
		b.WriteByte('\n')
		for _, c := range t.Children(e) {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots() {
		walk(r, 0)
	}
	return b.String()
}
