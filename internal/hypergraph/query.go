package hypergraph

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Edge is one relation of a join query: a name plus the set of attributes
// it mentions.
type Edge struct {
	Name string
	Vars VarSet
}

// Query is a (natural) join query Q = (V, E), Section 1.1 of the paper:
// attributes are vertices, relations are hyperedges. Attribute ids are
// dense 0..NumAttrs()-1 and map to human-readable names.
type Query struct {
	name      string
	attrNames []string
	attrIDs   map[string]int
	edges     []Edge
}

// NewQuery returns an empty query with the given display name.
func NewQuery(name string) *Query {
	return &Query{name: name, attrIDs: make(map[string]int)}
}

// Name returns the query's display name.
func (q *Query) Name() string { return q.name }

// NumAttrs returns |V|.
func (q *Query) NumAttrs() int { return len(q.attrNames) }

// NumEdges returns |E|.
func (q *Query) NumEdges() int { return len(q.edges) }

// Attr interns an attribute name and returns its id.
func (q *Query) Attr(name string) int {
	if id, ok := q.attrIDs[name]; ok {
		return id
	}
	id := len(q.attrNames)
	q.attrNames = append(q.attrNames, name)
	q.attrIDs[name] = id
	return id
}

// AttrName returns the display name of attribute id a.
func (q *Query) AttrName(a int) string {
	if a < 0 || a >= len(q.attrNames) {
		return fmt.Sprintf("x%d", a)
	}
	return q.attrNames[a]
}

// AttrID returns the id for a named attribute, or -1 if unknown.
func (q *Query) AttrID(name string) int {
	if id, ok := q.attrIDs[name]; ok {
		return id
	}
	return -1
}

// AddEdge appends a relation with the named attributes and returns its
// edge index.
func (q *Query) AddEdge(relName string, attrs ...string) int {
	var vs VarSet
	for _, a := range attrs {
		vs.Add(q.Attr(a))
	}
	q.edges = append(q.edges, Edge{Name: relName, Vars: vs})
	return len(q.edges) - 1
}

// AddEdgeVars appends a relation whose attribute set is given by raw
// attribute ids in the query's id space; names are synthesized for ids
// beyond the current attribute table. It lets derived queries (residual
// subqueries, ad-hoc counting queries) reuse the ids of an existing
// query so relation schemas line up.
func (q *Query) AddEdgeVars(relName string, vs VarSet) int {
	maxID := -1
	for _, id := range vs.Attrs() {
		if id > maxID {
			maxID = id
		}
	}
	for len(q.attrNames) <= maxID {
		name := fmt.Sprintf("x%d", len(q.attrNames))
		q.attrIDs[name] = len(q.attrNames)
		q.attrNames = append(q.attrNames, name)
	}
	q.edges = append(q.edges, Edge{Name: relName, Vars: vs.Clone()})
	return len(q.edges) - 1
}

// AppendShapeKey appends q's structural key to dst: the attribute count,
// then each edge's attribute-id set in edge order (its bitset words,
// trailing zero words trimmed, behind a word count). The key holds no
// names, so two queries have equal keys exactly when they have the same
// attribute count and the same id set on every edge; a pure renaming
// keeps its key, because Parse assigns ids by first appearance.
func (q *Query) AppendShapeKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(q.attrNames)))
	for _, e := range q.edges {
		w := e.Vars.words
		for len(w) > 0 && w[len(w)-1] == 0 {
			w = w[:len(w)-1]
		}
		dst = binary.AppendUvarint(dst, uint64(len(w)))
		for _, x := range w {
			dst = binary.LittleEndian.AppendUint64(dst, x)
		}
	}
	return dst
}

// Edge returns the edge at index i.
func (q *Query) Edge(i int) Edge { return q.edges[i] }

// EdgeIndex returns the index of the relation with the given name, or -1.
func (q *Query) EdgeIndex(relName string) int {
	for i, e := range q.edges {
		if e.Name == relName {
			return i
		}
	}
	return -1
}

// EdgeVars returns the attribute set of edge i.
func (q *Query) EdgeVars(i int) VarSet { return q.edges[i].Vars }

// AllVars returns V as a set.
func (q *Query) AllVars() VarSet {
	var vs VarSet
	for _, e := range q.edges {
		vs = vs.Union(e.Vars)
	}
	return vs
}

// AllEdges returns E as a set of edge indices.
func (q *Query) AllEdges() EdgeSet {
	var es EdgeSet
	for i := range q.edges {
		es.Add(i)
	}
	return es
}

// EdgesWith returns E_x = {e ∈ E : x ∈ e}, the relations containing
// attribute x.
func (q *Query) EdgesWith(attr int) EdgeSet {
	var es EdgeSet
	for i, e := range q.edges {
		if e.Vars.Contains(attr) {
			es.Add(i)
		}
	}
	return es
}

// Degree returns |E_x|: the number of relations containing attribute x.
func (q *Query) Degree(attr int) int { return q.EdgesWith(attr).Len() }

// FormatVars renders an attribute set with names.
func (q *Query) FormatVars(vs VarSet) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range vs.Attrs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(q.AttrName(a))
	}
	b.WriteByte('}')
	return b.String()
}

// FormatEdges renders an edge set with relation names.
func (q *Query) FormatEdges(es EdgeSet) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range es.Edges() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(q.edges[e].Name)
	}
	b.WriteByte('}')
	return b.String()
}

// String renders the query in the R(A,B) ⋈ S(B,C) style used throughout
// the paper.
func (q *Query) String() string {
	var b strings.Builder
	for i, e := range q.edges {
		if i > 0 {
			b.WriteString(" ⋈ ")
		}
		b.WriteString(e.Name)
		b.WriteByte('(')
		for j, a := range e.Vars.Attrs() {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(q.AttrName(a))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	cp := NewQuery(q.name)
	cp.attrNames = append([]string(nil), q.attrNames...)
	for i, n := range cp.attrNames {
		cp.attrIDs[n] = i
	}
	for _, e := range q.edges {
		cp.edges = append(cp.edges, Edge{Name: e.Name, Vars: e.Vars.Clone()})
	}
	return cp
}

// Parse builds a query from a compact textual form such as
//
//	"R1(A,B,C) R2(D,E,F) R3(A,D) R4(B,E) R5(C,F)"
//
// Relations are separated by whitespace (or the ⋈ sign); attributes by
// commas. It is the notation the paper uses for all its examples.
func Parse(name, s string) (*Query, error) {
	q := NewQuery(name)
	s = strings.ReplaceAll(s, "⋈", " ")
	rest := strings.TrimSpace(s)
	for rest != "" {
		open := strings.IndexByte(rest, '(')
		if open <= 0 {
			return nil, fmt.Errorf("hypergraph: parse %q: expected Rel(attrs...) near %q", name, rest)
		}
		closeIdx := strings.IndexByte(rest, ')')
		if closeIdx < open {
			return nil, fmt.Errorf("hypergraph: parse %q: unbalanced parentheses near %q", name, rest)
		}
		rel := strings.TrimSpace(rest[:open])
		if rel == "" {
			return nil, fmt.Errorf("hypergraph: parse %q: empty relation name", name)
		}
		var attrs []string
		for _, a := range strings.Split(rest[open+1:closeIdx], ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("hypergraph: parse %q: empty attribute in %s", name, rel)
			}
			attrs = append(attrs, a)
		}
		if len(attrs) == 0 {
			return nil, fmt.Errorf("hypergraph: parse %q: relation %s has no attributes", name, rel)
		}
		q.AddEdge(rel, attrs...)
		rest = strings.TrimSpace(rest[closeIdx+1:])
	}
	if q.NumEdges() == 0 {
		return nil, fmt.Errorf("hypergraph: parse %q: no relations", name)
	}
	return q, nil
}

// MustParse is Parse that panics on error; intended for the catalog and
// tests where the input is a literal.
func MustParse(name, s string) *Query {
	q, err := Parse(name, s)
	if err != nil {
		panic(err)
	}
	return q
}

// SubsetsOf enumerates all subsets of the given edge indices in a
// deterministic order (by binary counter over the sorted index list).
// The generic algorithm's cost formulas (Theorem 1) range over 2^E; query
// sizes are constants, so this is fine.
func SubsetsOf(edges []int) []EdgeSet {
	sorted := append([]int(nil), edges...)
	sort.Ints(sorted)
	n := len(sorted)
	out := make([]EdgeSet, 0, 1<<uint(n))
	for mask := 0; mask < 1<<uint(n); mask++ {
		var es EdgeSet
		for b := 0; b < n; b++ {
			if mask&(1<<uint(b)) != 0 {
				es.Add(sorted[b])
			}
		}
		out = append(out, es)
	}
	return out
}
