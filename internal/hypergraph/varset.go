// Package hypergraph models join queries as hypergraphs, following the
// paper's Section 1.1: vertices are attributes, hyperedges are relations.
//
// The package provides the structural machinery every other layer builds
// on: GYO reduction and join-tree construction for α-acyclic queries
// (Appendix A.1), residual and reduced queries, connected components,
// Berge-acyclicity (Appendix A.2), hierarchical and degree-two tests, odd
// cycle detection (Lemma 5.3), and a catalog of the queries the paper
// uses as running examples.
package hypergraph

import (
	"math/bits"
	"strings"
)

// VarSet is a set of attribute ids, implemented as a bitset. Queries are
// constant-size (data complexity), so sets are tiny; VarSet still supports
// arbitrarily many attributes so that generated families (long path joins,
// wide star joins) are not artificially capped.
type VarSet struct {
	words []uint64
}

// NewVarSet returns a set containing the given attribute ids.
func NewVarSet(attrs ...int) VarSet {
	var s VarSet
	for _, a := range attrs {
		s.Add(a)
	}
	return s
}

func (s *VarSet) ensure(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts attribute a.
func (s *VarSet) Add(a int) {
	if a < 0 {
		panic("hypergraph: negative attribute id")
	}
	s.ensure(a / 64)
	s.words[a/64] |= 1 << (uint(a) % 64)
}

// Remove deletes attribute a if present.
func (s *VarSet) Remove(a int) {
	if a < 0 || a/64 >= len(s.words) {
		return
	}
	s.words[a/64] &^= 1 << (uint(a) % 64)
}

// Contains reports whether attribute a is in the set.
func (s VarSet) Contains(a int) bool {
	if a < 0 || a/64 >= len(s.words) {
		return false
	}
	return s.words[a/64]&(1<<(uint(a)%64)) != 0
}

// Len returns the number of attributes in the set.
func (s VarSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no attributes.
func (s VarSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s VarSet) Clone() VarSet {
	return VarSet{words: append([]uint64(nil), s.words...)}
}

// Union returns s ∪ t.
func (s VarSet) Union(t VarSet) VarSet {
	out := s.Clone()
	out.ensure(len(t.words) - 1)
	for i, w := range t.words {
		out.words[i] |= w
	}
	return out
}

// Intersect returns s ∩ t.
func (s VarSet) Intersect(t VarSet) VarSet {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := VarSet{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// Subtract returns s \ t.
func (s VarSet) Subtract(t VarSet) VarSet {
	out := s.Clone()
	n := len(out.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		out.words[i] &^= t.words[i]
	}
	return out
}

// SubsetOf reports whether s ⊆ t.
func (s VarSet) SubsetOf(t VarSet) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same attributes.
func (s VarSet) Equal(t VarSet) bool {
	return s.SubsetOf(t) && t.SubsetOf(s)
}

// Intersects reports whether s ∩ t is nonempty.
func (s VarSet) Intersects(t VarSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Attrs returns the attribute ids in ascending order.
func (s VarSet) Attrs() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b)
			w &= w - 1
		}
	}
	return out
}

// String formats the set as {a0,a3,...} using raw ids; Query.FormatVars
// renders names.
func (s VarSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range s.Attrs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(itoa(a))
	}
	b.WriteByte('}')
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// EdgeSet is a set of edge (relation) indices within a query, also a
// bitset. The generic algorithm's cost formulas range over subsets of E,
// so EdgeSet supports enumeration of subsets.
type EdgeSet struct {
	words []uint64
}

// NewEdgeSet returns a set of the given edge indices.
func NewEdgeSet(edges ...int) EdgeSet {
	var s EdgeSet
	for _, e := range edges {
		s.Add(e)
	}
	return s
}

func (s *EdgeSet) ensure(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts edge index e.
func (s *EdgeSet) Add(e int) {
	if e < 0 {
		panic("hypergraph: negative edge index")
	}
	s.ensure(e / 64)
	s.words[e/64] |= 1 << (uint(e) % 64)
}

// Remove deletes edge index e if present.
func (s *EdgeSet) Remove(e int) {
	if e < 0 || e/64 >= len(s.words) {
		return
	}
	s.words[e/64] &^= 1 << (uint(e) % 64)
}

// Contains reports whether edge index e is in the set.
func (s EdgeSet) Contains(e int) bool {
	if e < 0 || e/64 >= len(s.words) {
		return false
	}
	return s.words[e/64]&(1<<(uint(e)%64)) != 0
}

// Len returns the number of edges in the set.
func (s EdgeSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no edges.
func (s EdgeSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s EdgeSet) Clone() EdgeSet {
	return EdgeSet{words: append([]uint64(nil), s.words...)}
}

// Subtract returns s \ t.
func (s EdgeSet) Subtract(t EdgeSet) EdgeSet {
	out := s.Clone()
	n := len(out.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		out.words[i] &^= t.words[i]
	}
	return out
}

// Edges returns the edge indices in ascending order.
func (s EdgeSet) Edges() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b)
			w &= w - 1
		}
	}
	return out
}
