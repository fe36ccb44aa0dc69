package hypergraph

import "fmt"

// This file holds the structural operations on join queries that the
// paper's algorithms and lower bounds rely on: residual and reduced
// queries, connected components, and the class membership tests behind
// Figure 1 (hierarchical, Berge-acyclic, α-acyclic, Loomis-Whitney,
// degree-two) plus the odd-cycle test of Lemma 5.3.

// Residual returns Q_x = (V−x, E_x): the query with the attributes in x
// removed from every relation (Section 1.3, footnote 2, and Step 2 of the
// generic algorithm). Relations that become empty are dropped.
func (q *Query) Residual(x VarSet) *Query {
	out := NewQuery(q.name + "|residual")
	out.attrNames = append([]string(nil), q.attrNames...)
	for i, n := range out.attrNames {
		out.attrIDs[n] = i
	}
	for _, e := range q.edges {
		rv := e.Vars.Subtract(x)
		if rv.IsEmpty() {
			continue
		}
		out.edges = append(out.edges, Edge{Name: e.Name, Vars: rv})
	}
	return out
}

// KeepEdges returns the query restricted to the given set of relations.
func (q *Query) KeepEdges(es EdgeSet) *Query {
	out := NewQuery(q.name + "|sub")
	out.attrNames = append([]string(nil), q.attrNames...)
	for i, n := range out.attrNames {
		out.attrIDs[n] = i
	}
	for _, i := range es.Edges() {
		e := q.edges[i]
		out.edges = append(out.edges, Edge{Name: e.Name, Vars: e.Vars.Clone()})
	}
	return out
}

// Reduce removes every relation contained in another (e ⊆ e'), keeping
// the deterministic first witness, and deduplicates identical edges. The
// result is the "reduced" query the paper's lower-bound section assumes.
// It returns the reduced query and, for each removed edge index in the
// original query, the index of the surviving edge that contains it.
func (q *Query) Reduce() (*Query, map[int]int) {
	absorbed := make(map[int]int)
	alive := make([]bool, len(q.edges))
	for i := range alive {
		alive[i] = true
	}
	for i := range q.edges {
		if !alive[i] {
			continue
		}
		for j := range q.edges {
			if i == j || !alive[j] {
				continue
			}
			if q.edges[i].Vars.SubsetOf(q.edges[j].Vars) {
				// Prefer to drop the smaller edge; ties drop the
				// higher index so the first occurrence survives.
				if q.edges[i].Vars.Equal(q.edges[j].Vars) && i < j {
					continue
				}
				alive[i] = false
				absorbed[i] = j
				break
			}
		}
	}
	var keep EdgeSet
	for i, a := range alive {
		if a {
			keep.Add(i)
		}
	}
	out := q.KeepEdges(keep)
	out.name = q.name
	// Chase absorption chains so every removed edge maps to a survivor.
	for k, v := range absorbed {
		for {
			if nv, ok := absorbed[v]; ok {
				v = nv
				continue
			}
			break
		}
		absorbed[k] = v
	}
	return out, absorbed
}

// IsReduced reports whether no relation is contained in another.
func (q *Query) IsReduced() bool {
	for i := range q.edges {
		for j := range q.edges {
			if i != j && q.edges[i].Vars.SubsetOf(q.edges[j].Vars) {
				return false
			}
		}
	}
	return true
}

// ConnectedComponents partitions E into maximal sets of relations linked
// by shared attributes and returns one EdgeSet per component, ordered by
// smallest contained edge index.
func (q *Query) ConnectedComponents() []EdgeSet {
	n := len(q.edges)
	parent := make([]int, n)
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
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if q.edges[i].Vars.Intersects(q.edges[j].Vars) {
				union(i, j)
			}
		}
	}
	groups := make(map[int]*EdgeSet)
	var order []int
	for i := 0; i < n; i++ {
		r := find(i)
		g, ok := groups[r]
		if !ok {
			g = &EdgeSet{}
			groups[r] = g
			order = append(order, r)
		}
		g.Add(i)
	}
	out := make([]EdgeSet, 0, len(order))
	for _, r := range order {
		out = append(out, *groups[r])
	}
	return out
}

// IsHierarchical reports whether for every pair of attributes x, y the
// relation sets E_x and E_y are either disjoint or nested. The paper's
// r-hierarchical class [15] is the hierarchical property on the reduced
// query; use q.Reduce() first for that test.
func (q *Query) IsHierarchical() bool {
	vars := q.AllVars().Attrs()
	for i := 0; i < len(vars); i++ {
		ei := q.EdgesWith(vars[i])
		for j := i + 1; j < len(vars); j++ {
			ej := q.EdgesWith(vars[j])
			inter := ei.Clone()
			inter = inter.Subtract(ei.Subtract(ej)) // ei ∩ ej
			if inter.IsEmpty() {
				continue
			}
			if !subsetEdges(ei, ej) && !subsetEdges(ej, ei) {
				return false
			}
		}
	}
	return true
}

func subsetEdges(a, b EdgeSet) bool {
	return a.Subtract(b).IsEmpty()
}

// IsDegreeTwo reports whether every attribute appears in exactly two
// relations (Section 5.2's degree-two join class).
func (q *Query) IsDegreeTwo() bool {
	for _, a := range q.AllVars().Attrs() {
		if q.Degree(a) != 2 {
			return false
		}
	}
	return true
}

// IsLoomisWhitney reports whether E = {V − {x} : x ∈ V} (footnote 3).
func (q *Query) IsLoomisWhitney() bool {
	all := q.AllVars()
	n := all.Len()
	if len(q.edges) != n || n < 3 {
		return false
	}
	seen := make(map[string]bool)
	for _, e := range q.edges {
		if e.Vars.Len() != n-1 || !e.Vars.SubsetOf(all) {
			return false
		}
		missing := all.Subtract(e.Vars)
		if missing.Len() != 1 {
			return false
		}
		k := missing.String()
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return len(seen) == n
}

// HasOddCycle reports whether the query contains an odd-length cycle in
// the sense of Lemma 5.3's footnote: a cyclic sequence of vertices
// v_1..v_n and relations e_1..e_n with {v_i, v_{i+1 mod n}} ⊆ e_i.
// For degree-two queries this is equivalent to non-bipartiteness of the
// multigraph whose nodes are relations and whose links are shared
// attributes; that is the test implemented here. It also detects odd
// cycles in general queries by checking every pair of distinct relations
// sharing an attribute as a potential cycle link.
func (q *Query) HasOddCycle() bool {
	n := len(q.edges)
	adj := make([][]int, n)
	for _, a := range q.AllVars().Attrs() {
		es := q.EdgesWith(a).Edges()
		for i := 0; i < len(es); i++ {
			for j := i + 1; j < len(es); j++ {
				adj[es[i]] = append(adj[es[i]], es[j])
				adj[es[j]] = append(adj[es[j]], es[i])
			}
		}
	}
	color := make([]int, n) // 0 unknown, 1/2 sides
	for s := 0; s < n; s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if color[v] == 0 {
					color[v] = 3 - color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					return true
				}
			}
		}
	}
	return false
}

// IsTreeJoin reports whether the query is acyclic with every relation
// binary (footnote 7: "a join query Q is a tree join if it is acyclic
// and each relation contains at most two attributes").
func (q *Query) IsTreeJoin() bool {
	for _, e := range q.edges {
		if e.Vars.Len() > 2 {
			return false
		}
	}
	return q.IsAcyclic()
}

// PathDecomposition partitions a tree join's relations into
// edge-disjoint path joins: repeatedly strip a maximal path of edges
// whose interior attributes have degree exactly two, until no edges
// remain. Each returned EdgeSet induces a path join (connected, every
// attribute of degree ≤ 2 within the part); adjacent paths may touch at
// a branching attribute. This is the edge-partition form of footnote
// 8's tree-join decomposition, and coincides with the linear cover of
// Definition 4.7 for binary-relation trees.
func (q *Query) PathDecomposition() ([]EdgeSet, error) {
	if !q.IsTreeJoin() {
		return nil, fmt.Errorf("hypergraph: %s is not a tree join", q.Name())
	}
	remaining := q.AllEdges()
	var out []EdgeSet
	usedAttrs := VarSet{}
	for !remaining.IsEmpty() {
		// Start from the lowest remaining edge having an endpoint of
		// degree 1 within the remaining subgraph (a tree always has
		// one), and extend greedily through degree-2 attributes not yet
		// used by another path.
		deg := map[int]int{}
		for _, e := range remaining.Edges() {
			for _, a := range q.edges[e].Vars.Attrs() {
				deg[a]++
			}
		}
		start := -1
		for _, e := range remaining.Edges() {
			for _, a := range q.edges[e].Vars.Attrs() {
				if deg[a] == 1 && !usedAttrs.Contains(a) {
					start = e
					break
				}
			}
			if start >= 0 {
				break
			}
		}
		if start == -1 {
			start = remaining.Edges()[0]
		}
		path := NewEdgeSet(start)
		remaining.Remove(start)
		cur := start
		for {
			next := -1
			for _, a := range q.edges[cur].Vars.Attrs() {
				if usedAttrs.Contains(a) || deg[a] != 2 {
					continue
				}
				for _, e := range remaining.Edges() {
					if q.edges[e].Vars.Contains(a) {
						next = e
						break
					}
				}
				if next >= 0 {
					break
				}
			}
			if next == -1 {
				break
			}
			path.Add(next)
			remaining.Remove(next)
			cur = next
		}
		for _, e := range path.Edges() {
			usedAttrs = usedAttrs.Union(q.edges[e].Vars)
		}
		out = append(out, path)
	}
	return out, nil
}

// IsBergeAcyclic reports whether the bipartite incidence graph between
// attributes and relations is acyclic (Appendix A.2). Attributes of
// degree one never create cycles; a cycle exists iff some connected
// component of the incidence graph has at least as many links as nodes.
// Note the definitional caveat from the paper: two relations sharing two
// or more attributes immediately create a Berge cycle.
func (q *Query) IsBergeAcyclic() bool {
	// Build incidence graph: nodes = attrs (0..nA-1) then edges
	// (nA..nA+nE-1); links for each (attr, relation) membership.
	attrs := q.AllVars().Attrs()
	idx := make(map[int]int, len(attrs))
	for i, a := range attrs {
		idx[a] = i
	}
	nA := len(attrs)
	nodes := nA + len(q.edges)
	adj := make([][]int, nodes)
	links := 0
	for ei, e := range q.edges {
		en := nA + ei
		for _, a := range e.Vars.Attrs() {
			an := idx[a]
			adj[an] = append(adj[an], en)
			adj[en] = append(adj[en], an)
			links++
		}
	}
	// Acyclic iff every component has links = nodes-1. Count per
	// component via BFS.
	seen := make([]bool, nodes)
	for s := 0; s < nodes; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue := []int{s}
		compNodes, compLinkEnds := 0, 0
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			compNodes++
			compLinkEnds += len(adj[u])
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		if compLinkEnds/2 >= compNodes {
			return false
		}
	}
	return true
}
