package hypergraph

import (
	"sort"
	"strconv"
	"strings"
)

// Canonical labeling of query hypergraphs.
//
// Two queries are isomorphic when a bijection of their attributes maps
// the edge multiset of one onto the other — relation and attribute
// names, attribute-id assignment, and edge order are all irrelevant.
// A canonical form is a labeling-invariant encoding plus the
// permutations that relate the query's own labeling to the canonical
// one. The compile memo (internal/plan) does not use it: it keys on the
// query's own edge structure (Query.AppendShapeKey). Canon backs the
// public coverpack.CanonicalKey.
//
// The algorithm is the standard individualization-refinement scheme on
// the bipartite incidence structure:
//
//  1. Color refinement: vertex colors are refined by the multiset of
//     incident edge colors, edge colors by arity and the multiset of
//     member vertex colors, iterated to a fixed point. Signatures are
//     built from color values only (never raw ids), so the fixed point
//     is isomorphism-invariant.
//  2. Individualization with backtracking: while some vertex color
//     class has more than one member (automorphism-heavy shapes —
//     cycles, cliques, duplicate edges), each member of the first such
//     class is tentatively given a fresh color and the refinement
//     recurses; the lexicographically smallest complete encoding wins.
//
// Query sizes are constants in this repository (data complexity), so
// the worst-case factorial search is bounded by CanonMaxAttrs and
// never hurts: the catalog's most symmetric shapes (k-cycles, LW
// cliques) refine to discrete colorings after one or two
// individualizations.

// CanonMaxAttrs and CanonMaxEdges bound the canonical search; Canon
// returns nil beyond them (and CanonKey "") so accidental blowups
// degrade to "no key" instead of a stalled process. They comfortably
// exceed PsiMaxAttrs, the binding size limit elsewhere in the analysis
// layer.
const (
	CanonMaxAttrs = 30
	CanonMaxEdges = 30
)

// CanonicalForm is the canonical labeling of one query hypergraph.
type CanonicalForm struct {
	// Key is the labeling-invariant shape encoding: vertex count, edge
	// count, and the sorted canonical edge multiset. Two queries have
	// equal keys iff their hypergraphs are isomorphic.
	Key string
	// VertexPerm maps the query's attribute ids to canonical vertex
	// ids (0..k-1 over the attributes that occur in at least one edge;
	// -1 for attribute-table entries no edge mentions).
	VertexPerm []int
	// EdgePerm maps the query's edge indices to canonical edge
	// positions (the index of the edge's image in the sorted canonical
	// edge list; duplicate edges tie-break by original index, so the
	// map is a bijection).
	EdgePerm []int
}

// CanonKey returns just the canonical shape key (nil-safe shorthand
// for Canon(q).Key); it is "" when the query exceeds the size bounds.
func CanonKey(q *Query) string {
	cf := Canon(q)
	if cf == nil {
		return ""
	}
	return cf.Key
}

// Canon computes the canonical form of q's hypergraph, or nil when the
// query exceeds CanonMaxAttrs/CanonMaxEdges.
func Canon(q *Query) *CanonicalForm {
	c := newCanonizer(q)
	if c == nil {
		return nil
	}
	c.search(c.initialColors())
	if c.best == nil {
		return nil
	}
	vperm := make([]int, q.NumAttrs())
	for i := range vperm {
		vperm[i] = -1
	}
	for local, attr := range c.attrs {
		vperm[attr] = c.best.vrank[local]
	}
	return &CanonicalForm{
		Key:        c.best.encoding,
		VertexPerm: vperm,
		EdgePerm:   append([]int(nil), c.best.eperm...),
	}
}

// canonizer carries the immutable incidence structure plus the best
// leaf found so far.
type canonizer struct {
	attrs     []int   // local vertex index -> attribute id
	vertEdges [][]int // local vertex -> incident edge indices
	edgeVerts [][]int // edge index -> local vertex indices
	n, m      int
	best      *canonLeaf
}

type canonLeaf struct {
	encoding string
	vrank    []int // local vertex -> canonical id
	eperm    []int // edge index -> canonical position
}

func newCanonizer(q *Query) *canonizer {
	attrs := q.AllVars().Attrs()
	if len(attrs) > CanonMaxAttrs || q.NumEdges() > CanonMaxEdges {
		return nil
	}
	local := make(map[int]int, len(attrs))
	for i, a := range attrs {
		local[a] = i
	}
	c := &canonizer{attrs: attrs, n: len(attrs), m: q.NumEdges()}
	c.vertEdges = make([][]int, c.n)
	c.edgeVerts = make([][]int, c.m)
	for e := 0; e < c.m; e++ {
		for _, a := range q.EdgeVars(e).Attrs() {
			v := local[a]
			c.edgeVerts[e] = append(c.edgeVerts[e], v)
			c.vertEdges[v] = append(c.vertEdges[v], e)
		}
	}
	return c
}

func (c *canonizer) initialColors() []int {
	return make([]int, c.n)
}

// refine runs color refinement to a fixed point starting from the given
// vertex coloring (edge colors start uniform) and returns the
// rank-compressed stable vertex and edge colorings.
func (c *canonizer) refine(vcol []int) ([]int, []int) {
	vcol = append([]int(nil), vcol...)
	ecol := make([]int, c.m)
	vclasses, eclasses := countClasses(vcol), countClasses(ecol)
	for {
		// Edge signatures: (old color, arity, sorted member colors).
		esigs := make([]string, c.m)
		for e := 0; e < c.m; e++ {
			esigs[e] = signature(ecol[e], memberColors(c.edgeVerts[e], vcol))
		}
		ecol = compress(esigs)
		// Vertex signatures: (old color, sorted incident edge colors).
		vsigs := make([]string, c.n)
		for v := 0; v < c.n; v++ {
			vsigs[v] = signature(vcol[v], memberColors(c.vertEdges[v], ecol))
		}
		vcol = compress(vsigs)
		nv, ne := countClasses(vcol), countClasses(ecol)
		if nv == vclasses && ne == eclasses {
			return vcol, ecol
		}
		vclasses, eclasses = nv, ne
	}
}

func memberColors(members []int, colors []int) []int {
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = colors[m]
	}
	sort.Ints(out)
	return out
}

func signature(old int, sorted []int) string {
	var b strings.Builder
	b.Grow(4 * (len(sorted) + 1))
	b.WriteString(strconv.Itoa(old))
	for _, x := range sorted {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// compress rank-compresses signatures into dense colors 0..k-1 ordered
// by signature — the ordering depends only on color values, never on
// original labels, which is what makes the fixed point invariant.
func compress(sigs []string) []int {
	uniq := append([]string(nil), sigs...)
	sort.Strings(uniq)
	rank := make(map[string]int, len(uniq))
	for _, s := range uniq {
		if _, ok := rank[s]; !ok {
			rank[s] = len(rank)
		}
	}
	out := make([]int, len(sigs))
	for i, s := range sigs {
		out[i] = rank[s]
	}
	return out
}

func countClasses(colors []int) int {
	seen := make(map[int]struct{}, len(colors))
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// search explores the individualization tree under the given vertex
// coloring, keeping the lexicographically smallest complete encoding.
func (c *canonizer) search(vcol []int) {
	vcol, _ = c.refine(vcol)
	cell := c.targetCell(vcol)
	if cell == nil {
		c.leaf(vcol)
		return
	}
	fresh := c.n + c.m // strictly above any compressed color
	for _, v := range cell {
		branch := append([]int(nil), vcol...)
		branch[v] = fresh
		c.search(branch)
	}
}

// targetCell returns the members of the first (lowest-color) vertex
// class with more than one member, or nil when the coloring is
// discrete.
func (c *canonizer) targetCell(vcol []int) []int {
	byColor := make(map[int][]int)
	minColor := -1
	for v, col := range vcol {
		byColor[col] = append(byColor[col], v)
		if len(byColor[col]) > 1 && (minColor < 0 || col < minColor) {
			minColor = col
		}
	}
	if minColor < 0 {
		return nil
	}
	return byColor[minColor]
}

// leaf turns a discrete vertex coloring into a candidate canonical
// form and keeps it when it beats the current best.
func (c *canonizer) leaf(vcol []int) {
	// Discrete colors are a permutation of 0..n-1 after compression.
	vrank := vcol

	// Canonical edges: member vertices relabeled and sorted, then the
	// edge list sorted lexicographically (ties — duplicate edges — by
	// original index, keeping the permutation deterministic).
	type cedge struct {
		verts []int
		orig  int
	}
	edges := make([]cedge, c.m)
	for e := 0; e < c.m; e++ {
		vs := make([]int, len(c.edgeVerts[e]))
		for i, v := range c.edgeVerts[e] {
			vs[i] = vrank[v]
		}
		sort.Ints(vs)
		edges[e] = cedge{verts: vs, orig: e}
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i].verts, edges[j].verts
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return edges[i].orig < edges[j].orig
	})

	var b strings.Builder
	b.Grow(8 * (c.n + 2*c.m))
	b.WriteString("v")
	b.WriteString(strconv.Itoa(c.n))
	b.WriteString(";e")
	b.WriteString(strconv.Itoa(c.m))
	for _, e := range edges {
		b.WriteByte(';')
		for i, v := range e.verts {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
	}
	enc := b.String()
	if c.best != nil && c.best.encoding <= enc {
		return
	}
	eperm := make([]int, c.m)
	for pos, e := range edges {
		eperm[e.orig] = pos
	}
	c.best = &canonLeaf{
		encoding: enc,
		vrank:    append([]int(nil), vrank...),
		eperm:    eperm,
	}
}
