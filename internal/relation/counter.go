package relation

import (
	"fmt"
	"math"

	"coverpack/internal/hashtab"
	"coverpack/internal/hypergraph"
)

// The emit step. In the MPC model emitting join results at a server is
// free — only load is charged — so the simulator reports |join| of what
// a server holds instead of materialising it. A Counter is that count
// compiled once per list of schemas and then run once per list of
// relations (one per grid server, one per fragment); see DESIGN.md,
// "The emit step".

// Counter counts the natural join of relation lists that all share one
// list of schemas. Compiling resolves everything that depends on the
// schemas only: the join forest (hypergraph.GYOVars) with the shared-key
// column positions of every tree link, or, for a cyclic list, the order
// in which the relations are folded. A Counter is immutable after
// NewCounter and safe for concurrent use.
type Counter struct {
	schemas []Schema
	// Acyclic lists: the join forest as undirected adjacency, so that a
	// tree can be walked from any of its nodes (Bind re-roots at the
	// varying relation). roots holds one node per tree, root[e] the one
	// of e's tree.
	acyclic bool
	adj     [][]link
	roots   []int
	root    []int
	// Cyclic lists: relation indices in fold order, each sharing an
	// attribute with the ones before it where possible.
	fold []int
}

// link is one direction of a join-tree edge: the neighbour and the
// positions of the attributes shared with it, in this relation's rows
// (pos) and in the neighbour's (toPos), both in ascending attribute
// order.
type link struct {
	to         int
	pos, toPos []int
}

// NewCounter compiles the counter for relation lists with the given
// schemas. 0-ary schemas are presence markers: an empty relation there
// annihilates the join, a nonempty one is neutral.
func NewCounter(schemas []Schema) *Counter {
	n := len(schemas)
	c := &Counter{schemas: append([]Schema(nil), schemas...)}
	sets := make([]hypergraph.VarSet, n)
	for i, s := range schemas {
		sets[i] = hypergraph.NewVarSet(s.attrs...)
	}
	parent, ok := hypergraph.GYOVars(sets)
	if !ok {
		c.fold = foldOrder(sets)
		return c
	}
	c.acyclic = true
	c.adj = make([][]link, n)
	c.root = make([]int, n)
	for e, p := range parent {
		c.root[e] = e
		for parent[c.root[e]] >= 0 {
			c.root[e] = parent[c.root[e]]
		}
		if p < 0 {
			c.roots = append(c.roots, e)
			continue
		}
		common := schemas[e].Common(schemas[p])
		ePos, pPos := schemas[e].Positions(common), schemas[p].Positions(common)
		c.adj[e] = append(c.adj[e], link{to: p, pos: ePos, toPos: pPos})
		c.adj[p] = append(c.adj[p], link{to: e, pos: pPos, toPos: ePos})
	}
	return c
}

// foldOrder is Instance.Join's order: start at relation 0 and take next
// the lowest-index relation sharing an attribute with what is already
// folded, or the lowest-index one left when none does.
func foldOrder(sets []hypergraph.VarSet) []int {
	order := make([]int, 0, len(sets))
	used := make([]bool, len(sets))
	var acc hypergraph.VarSet
	for len(order) < len(sets) {
		next := -1
		for i, s := range sets {
			if used[i] {
				continue
			}
			if next < 0 {
				next = i
			}
			if acc.Intersects(s) {
				next = i
				break
			}
		}
		used[next] = true
		acc = acc.Union(sets[next])
		order = append(order, next)
	}
	return order
}

// Count returns the size of the natural join of rels, which must have
// the schemas the counter was compiled from; duplicate rows within a
// relation count once, and the result saturates at math.MaxInt64.
func (c *Counter) Count(rels []*Relation) int64 {
	c.check(rels, -1)
	for _, r := range rels {
		if r.rows == 0 {
			return 0
		}
	}
	if !c.acyclic {
		return c.countFold(rels)
	}
	total := int64(1)
	for _, root := range c.roots {
		total = MulSat(total, c.treeCount(rels, root))
		if total == 0 {
			return 0
		}
	}
	return total
}

// check panics unless rels (but for index skip) has the compiled
// schemas: the column positions baked into the counter are only valid
// for them.
func (c *Counter) check(rels []*Relation, skip int) {
	if len(rels) != len(c.schemas) {
		panic(fmt.Sprintf("relation: Counter compiled for %d relations, given %d", len(c.schemas), len(rels)))
	}
	for i, r := range rels {
		if i != skip && !r.schema.Equal(c.schemas[i]) {
			panic(fmt.Sprintf("relation: Counter relation %d has schema %v, compiled for %v", i, r.schema, c.schemas[i]))
		}
	}
}

// treeCount counts the join of the tree containing root, walked from
// root.
func (c *Counter) treeCount(rels []*Relation, root int) int64 {
	r, w := c.rowWeights(rels, root, -1)
	if w == nil {
		return int64(r.rows)
	}
	var sum int64
	for _, x := range w {
		sum = AddSat(sum, x)
	}
	return sum
}

// rowWeights is the count DP at node e of a tree walked away from node
// from: for each row of rels[e] (duplicates removed — the relation is
// returned) the number of combinations of rows of the subtree below e
// that join with it, i.e. the product over e's children of the summed
// weights of the child rows agreeing on the shared key. Dangling rows
// get weight 0 here without a reduction pass: a row with no partner in
// some child finds no key and multiplies by zero, and a row of a child
// with no partner in e is summed under a key nothing probes. A nil
// weight slice means every weight is 1 (e is a leaf).
func (c *Counter) rowWeights(rels []*Relation, e, from int) (*Relation, []int64) {
	r := distinct(rels[e])
	var w []int64
	for _, l := range c.adj[e] {
		if l.to == from {
			continue
		}
		table, sums := c.keySums(rels, l.to, e, l.toPos)
		if w == nil {
			w = make([]int64, r.rows)
			for i := range w {
				w[i] = 1
			}
		}
		data := r.Data()
		for i := range w {
			if w[i] == 0 {
				continue
			}
			if k := table.Find(data[i*r.arity:(i+1)*r.arity], l.pos); k >= 0 {
				w[i] = MulSat(w[i], sums[k])
			} else {
				w[i] = 0
			}
		}
		table.Release()
	}
	return r, w
}

// keySums aggregates the subtree at e (walked away from its parent
// from) by the key it shares with that parent: a table over the
// distinct keys, at positions pos of e's rows, and per table entry the
// summed weight of the rows carrying it.
func (c *Counter) keySums(rels []*Relation, e, from int, pos []int) (*hashtab.Table, []int64) {
	r, w := c.rowWeights(rels, e, from)
	return sumByKey(r, w, pos)
}

// sumByKey groups r's rows by the columns at pos and sums their weights
// w (nil: every weight is 1) per group. The caller releases the table.
func sumByKey(r *Relation, w []int64, pos []int) (*hashtab.Table, []int64) {
	table := hashtab.New(len(pos), r.rows)
	sums := make([]int64, 0, r.rows)
	data := r.Data()
	for i := 0; i < r.rows; i++ {
		k, found := table.Insert(data[i*r.arity:(i+1)*r.arity], pos)
		if !found {
			sums = append(sums, 0)
		}
		x := int64(1)
		if w != nil {
			x = w[i]
		}
		sums[k] = AddSat(sums[k], x)
	}
	return table, sums
}

// countFold is the cyclic fallback: join all relations but the last of
// the fold order, then count — not build — the matches of the last.
func (c *Counter) countFold(rels []*Relation) int64 {
	acc := distinct(rels[c.fold[0]])
	last := len(c.fold) - 1
	for _, i := range c.fold[1:last] {
		acc = acc.Join(distinct(rels[i]))
	}
	return acc.JoinCount(distinct(rels[c.fold[last]]))
}

// BoundCounter is a Counter with every relation but one fixed: the
// count of the join as a function of the remaining, varying relation.
// Binding walks the varying relation's tree from that relation and
// aggregates each subtree hanging off it, and the other trees' counts,
// once; Count then only probes. After Bind a BoundCounter is read-only,
// so any number of goroutines may call Count on it at once (mpc.Group
// Fork bodies do), each with its own fragment.
type BoundCounter struct {
	c    *Counter
	vary int
	// factor is the product of the counts of the trees not containing
	// the varying relation; 0 means every fragment counts 0.
	factor int64
	probes []probe
	// rels is the bound list, kept for the cyclic fallback only.
	rels []*Relation
}

// probe is one subtree hanging off the varying relation: its per-key
// weight sums and the key's positions in the varying relation's rows.
type probe struct {
	pos   []int
	table *hashtab.Table
	sums  []int64
}

// Bind fixes rels[i] for every i != vary (rels[vary] is ignored and may
// be nil).
func (c *Counter) Bind(rels []*Relation, vary int) *BoundCounter {
	c.check(rels, vary)
	b := &BoundCounter{c: c, vary: vary}
	for i, r := range rels {
		if i != vary && r.rows == 0 {
			return b
		}
	}
	b.factor = 1
	if !c.acyclic {
		b.rels = append([]*Relation(nil), rels...)
		return b
	}
	for _, root := range c.roots {
		if root == c.root[vary] {
			continue
		}
		if b.factor = MulSat(b.factor, c.treeCount(rels, root)); b.factor == 0 {
			return b
		}
	}
	for _, l := range c.adj[vary] {
		table, sums := c.keySums(rels, l.to, vary, l.toPos)
		b.probes = append(b.probes, probe{pos: l.pos, table: table, sums: sums})
	}
	return b
}

// Count returns Counter.Count of the bound list with frag in the
// varying position. It allocates nothing when frag has at most
// smallDistinctRows rows and no duplicates.
func (b *BoundCounter) Count(frag *Relation) int64 {
	if !frag.schema.Equal(b.c.schemas[b.vary]) {
		panic(fmt.Sprintf("relation: BoundCounter fragment has schema %v, compiled for %v", frag.schema, b.c.schemas[b.vary]))
	}
	if b.factor == 0 || frag.rows == 0 {
		return 0
	}
	if !b.c.acyclic {
		rels := append([]*Relation(nil), b.rels...)
		rels[b.vary] = frag
		return b.c.Count(rels)
	}
	r := distinct(frag)
	if len(b.probes) == 0 {
		return MulSat(int64(r.rows), b.factor)
	}
	var total int64
	data := r.Data()
	for i := 0; i < r.rows; i++ {
		row := data[i*r.arity : (i+1)*r.arity]
		w := int64(1)
		for p := range b.probes {
			pr := &b.probes[p]
			k := pr.table.Find(row, pr.pos)
			if k < 0 {
				w = 0
				break
			}
			w = MulSat(w, pr.sums[k])
		}
		total = AddSat(total, w)
	}
	return MulSat(total, b.factor)
}

// Release returns the bound tables to the hashtab pools; the counter
// must not be used afterwards, and no Count may still be running.
func (b *BoundCounter) Release() {
	for _, pr := range b.probes {
		pr.table.Release()
	}
}

// smallDistinctRows bounds the stack form of distinct's duplicate
// check: row indices fit a byte and the slot array stays on the stack.
const smallDistinctRows = 64

// distinct returns r when it holds no duplicate row and r.Dedup()
// otherwise, so that the common duplicate-free relation is never copied.
// Above smallDistinctRows rows the check's slot array is a pooled arena,
// cleared before use and released after it. A 0-ary relation's rows are
// all equal: it stands for a single row.
func distinct(r *Relation) *Relation {
	if r.rows < 2 {
		return r
	}
	if r.arity == 0 {
		return r.Dedup()
	}
	var dup bool
	if r.rows <= smallDistinctRows {
		var slots [4 * smallDistinctRows]uint8
		dup = hasDuplicateRow(slots[:], r.Data(), r.rows, r.arity)
	} else {
		size := 8
		for size < 2*r.rows {
			size <<= 1
		}
		slots := GetArena(size)[:size]
		clear(slots)
		dup = hasDuplicateRow(slots, r.Data(), r.rows, r.arity)
		PutArena(slots[:0])
	}
	if dup {
		return r.Dedup()
	}
	return r
}

// hasDuplicateRow reports whether two of the rows in data are equal. It
// is a throwaway open-addressing set of row indices (index+1 in slots,
// a zeroed power-of-two array at least twice the row count) that
// compares against the arena in place: no keys are copied, and rows
// hash with the tables' own mixer (hashtab.MixRow).
func hasDuplicateRow[S uint8 | int64](slots []S, data []Value, rows, arity int) bool {
	mask := uint64(len(slots) - 1)
	for i := 0; i < rows; i++ {
		row := data[i*arity : (i+1)*arity]
		s := hashtab.MixRow(row) & mask
		for ; slots[s] != 0; s = (s + 1) & mask {
			if o := int(slots[s]-1) * arity; Tuple(row).Equal(data[o : o+arity]) {
				return true
			}
		}
		slots[s] = S(i + 1)
	}
	return false
}

// MulSat returns a·b for non-negative counts, saturating at
// math.MaxInt64 instead of wrapping — the product beside AddSat.
func MulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// AddSat returns a+b for non-negative counts, saturating at
// math.MaxInt64 instead of wrapping — the sum every join-size total in
// the repository uses, so that a count is either exact or MaxInt64.
func AddSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
