// Package primitives implements the MPC building blocks of the paper's
// Section 2 on top of the internal/mpc simulator:
//
//   - Reduce-by-key: associative aggregation of (key, value) pairs.
//   - Degree statistics: per-value tuple counts of a relation attribute.
//   - Semi-join, and full semi-join reduction over a join tree (removal
//     of dangling tuples for acyclic queries, Yannakakis phase 1).
//   - Parallel-packing: grouping weighted values into O(W/L + p) groups
//     of weight at most L.
//   - Distributed join-size counting over a join tree — the free-connex
//     join-aggregate statistics queries the generic algorithm issues
//     (see DESIGN.md for the substitution note on [16]).
//
// Every primitive charges its communication to the supplied Group; all
// run in O(1) rounds with load O(input/p) as the paper states.
//
// All primitives satisfy the mpc package's parallel-execution contract:
// routing closures are pure (the ReduceByKey fan-in destination depends
// only on the tuple's key and source index), local transforms touch no
// shared state, and Pack sorts each server's rows by value so its group
// assignment is independent of input order.
package primitives

import (
	"cmp"
	"slices"

	"coverpack/internal/hashtab"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// ReduceByKey sums the value column per distinct key. The input is a
// distributed relation whose schema contains the key attributes and the
// value attribute; the output holds one (key..., sum) row per distinct
// key, hash-partitioned by key.
//
// Servers pre-aggregate locally, then combine in two exchanges: partial
// rows of a key first fan in to a block of ~√p servers tied to the key,
// and the block's partials meet at the key's home server. A key held by
// all p servers therefore costs O(√p) per round instead of O(p) — the
// aggregation-tree trick that keeps the O(1)-round reduce-by-key load
// at Õ(input/p + √p).
func ReduceByKey(g *mpc.Group, d *mpc.DistRelation, keyAttrs []int, valAttr int) *mpc.DistRelation {
	outSchema := relation.NewSchema(append(append([]int(nil), keyAttrs...), valAttr)...)
	pre := mpc.Local(g, d, aggregateStep(d.Schema, keyAttrs, valAttr, outSchema))
	return reduceAggregated(g, pre, keyAttrs, valAttr, outSchema)
}

// reduceAggregated is ReduceByKey after the first local pre-aggregation
// — the exchange tail shared with Degrees, which counts its partials in
// one pass. pre must hold at most one row per key per server, under
// outSchema. The local pre-aggregation emits no trace events, so whether
// it happens inside or before the span is unobservable.
func reduceAggregated(g *mpc.Group, pre *mpc.DistRelation, keyAttrs []int, valAttr int, outSchema relation.Schema) *mpc.DistRelation {
	// Every exchanged fragment is under outSchema, so one step serves
	// both aggregations.
	step := aggregateStep(outSchema, keyAttrs, valAttr, outSchema)
	agg := func(dd *mpc.DistRelation) *mpc.DistRelation { return mpc.Local(g, dd, step) }
	var out *mpc.DistRelation
	g.Span("reduce-by-key", func() {
		p := g.Size()
		if p >= 4 {
			c := 1
			for c*c < p {
				c++
			}
			// All pre fragments share outSchema, so the step's key
			// positions serve the (pure) route closure.
			kpos := step.kpos
			mid := g.RouteBuf(pre, func(src int, t relation.Tuple, buf []int) []int {
				base := int(hashtab.Hash(t, kpos) % uint64(p))
				return append(buf[:0], (base+src%c)%p)
			})
			pre = agg(mid)
		}
		parted := g.HashPartition(pre, keyAttrs)
		out = agg(parted)
	})
	// Aggregation preserves placement: every output row keeps its key
	// values, and parted put each key's rows on hash(key) mod p — so the
	// result is still partitioned by key, and a follow-up keyed exchange
	// (Degrees feeding a per-value route, the tree-count reduce chain)
	// hits the identity fast path instead of re-hashing.
	out.MarkPartitioned(keyAttrs)
	return out
}

// smallAggCutoff bounds the aggregation's linear-scan path: at or below
// it the O(rows·groups) scan over the groups found so far beats building
// a hash table. Grouping semantics and first-seen output order are
// identical on both paths.
const smallAggCutoff = 32

// aggregate is ReduceByKey's per-server step: valAttr summed per key
// group of a fragment, one row per group under the output schema in
// first-seen key order. Count finds the groups and keeps group e's
// representative row and running sum at scratch[2e] and scratch[2e+1]:
// up to smallAggCutoff rows by comparing each row's key columns with
// those of the representatives found so far, above it through a
// borrowed hash table, whose dense entry indices are exactly first-seen
// order. Fill writes each group's representative's columns and its sum.
type aggregate struct {
	kpos   []int // key columns of the input
	vpos   int   // value column of the input
	srcPos []int // output column -> input column, −1 for the sum
	out    relation.Schema
}

// aggregateStep is the aggregate of valAttr by keyAttrs over fragments
// of schema in, producing rows under out (keys ∪ {valAttr}).
func aggregateStep(in relation.Schema, keyAttrs []int, valAttr int, out relation.Schema) aggregate {
	// kpos and srcPos share one allocation.
	kpos := in.AppendPositions(make([]int, 0, len(keyAttrs)+out.Len()), keyAttrs)
	s := aggregate{kpos: kpos, vpos: in.Pos(valAttr), srcPos: kpos[len(kpos) : len(kpos)+out.Len()], out: out}
	for i := range s.srcPos {
		if a := out.Attr(i); a == valAttr {
			s.srcPos[i] = -1
		} else {
			s.srcPos[i] = in.Pos(a)
		}
	}
	return s
}

func (s aggregate) Schema() relation.Schema { return s.out }

func (s aggregate) Scratch(_ int, in *relation.Relation) int { return 2 * in.Len() }

func (s aggregate) Count(_ int, in *relation.Relation, sc []relation.Value) int {
	n := in.Len()
	if n <= smallAggCutoff {
		groups := 0
	rows:
		for i := 0; i < n; i++ {
			t := in.Row(i)
			for e := 0; e < groups; e++ {
				if sameKey(in.Row(int(sc[2*e])), t, s.kpos) {
					sc[2*e+1] += t[s.vpos]
					continue rows
				}
			}
			sc[2*groups], sc[2*groups+1] = relation.Value(i), t[s.vpos]
			groups++
		}
		return groups
	}
	var tab hashtab.Table
	tab.Init(len(s.kpos), n)
	for i := 0; i < n; i++ {
		t := in.Row(i)
		e, found := tab.Insert(t, s.kpos)
		if !found {
			sc[2*e], sc[2*e+1] = relation.Value(i), 0
		}
		sc[2*e+1] += t[s.vpos]
	}
	groups := tab.Len()
	tab.Release()
	return groups
}

func (s aggregate) Fill(_ int, in *relation.Relation, sc, dst []relation.Value, rows int) {
	k := 0
	for e := 0; e < rows; e++ {
		rep := in.Row(int(sc[2*e]))
		for _, sp := range s.srcPos {
			if sp < 0 {
				dst[k] = sc[2*e+1]
			} else {
				dst[k] = rep[sp]
			}
			k++
		}
	}
}

// sameKey reports whether rows a and b agree on the columns pos.
func sameKey(a, b relation.Tuple, pos []int) bool {
	for _, p := range pos {
		if a[p] != b[p] {
			return false
		}
	}
	return true
}

// Degrees computes, for each distinct value of attr in d, its degree
// (number of tuples holding it), as a distributed relation with schema
// (attr, countAttr), hash-partitioned by attr. This is the paper's
// reduce-by-key application to degree statistics: every server counts
// its fragment's column straight into (value, count) rows
// (relation.Degrees), and the exchange tail of ReduceByKey combines them.
func Degrees(g *mpc.Group, d *mpc.DistRelation, attr, countAttr int) *mpc.DistRelation {
	schema := relation.NewSchema(attr, countAttr)
	pre := mpc.Local(g, d, relation.DegreesStep(d.Schema, attr, schema))
	return reduceAggregated(g, pre, []int{attr}, countAttr, schema)
}

// HeavyFilter keeps the rows of a degree relation whose countAttr
// value exceeds threshold — the per-server heavy-value cut every
// skew-handling algorithm applies after Degrees.
func HeavyFilter(g *mpc.Group, degs *mpc.DistRelation, countAttr int, threshold int64) *mpc.DistRelation {
	return mpc.Local(g, degs, relation.SelectGtStep(degs.Schema, countAttr, threshold))
}

// SemiJoin filters r to the tuples with a partner in s on their common
// attributes: both sides are hash-partitioned on the common attributes
// (one round each), then filtered locally. The result keeps r's schema,
// partitioned by the common attributes.
func SemiJoin(g *mpc.Group, r, s *mpc.DistRelation) *mpc.DistRelation {
	out, _ := semiJoin(g, r, s)
	return out
}

// semiJoin is SemiJoin that also returns s as it was partitioned for the
// filter (s itself when there is no common attribute).
func semiJoin(g *mpc.Group, r, s *mpc.DistRelation) (out, sp *mpc.DistRelation) {
	common := r.Schema.Common(s.Schema)
	if len(common) == 0 {
		if s.Len() == 0 {
			return mpc.NewDist(r.Schema, g.Size()), s
		}
		return r, s
	}
	rp := g.HashPartition(r, common)
	sp = g.HashPartition(s, common)
	out = mpc.Local(g, rp, relation.SemiJoinStep(rp.Schema, sp.Schema, sp.Frags))
	// The local filter keeps rows in place, so the output inherits rp's
	// partitioning — the next semi-join of a reduce sweep on the same
	// key (or the pair join that follows it) skips the exchange.
	out.MarkPartitioned(common)
	return out, sp
}

// SemiJoinReduceTree removes all dangling tuples of an acyclic instance
// with two sweeps of distributed semi-joins over the join tree (leaf to
// root, then root to leaf), as the paper's Section 2 notes following
// Yannakakis. children[e] lists the join-tree children of edge e;
// roots are the tree roots. O(1) rounds for constant-size queries.
//
// The up sweep keeps each child as it partitioned it on the key the
// child shares with its parent. Nothing touches the child again before
// the down sweep filters it by that parent on the same key, so that
// exchange is the identity: it returns the fragments re-hashing would
// and charges the same round, without hashing. (Under logical
// accounting the units are the same too; under physical accounting it
// charges none, since every tuple already sits on its server.)
func SemiJoinReduceTree(g *mpc.Group, rels []*mpc.DistRelation, children [][]int, roots []int) []*mpc.DistRelation {
	out := make([]*mpc.DistRelation, len(rels))
	copy(out, rels)
	g.Span("semi-join reduce", func() {
		var up func(e int)
		up = func(e int) {
			for _, c := range children[e] {
				up(c)
				out[e], out[c] = semiJoin(g, out[e], out[c])
			}
		}
		var down func(e int)
		down = func(e int) {
			for _, c := range children[e] {
				out[c] = SemiJoin(g, out[c], out[e])
				down(c)
			}
		}
		for _, r := range roots {
			up(r)
			down(r)
		}
	})
	return out
}

// PackResult is the output of Pack: an assignment of each input value to
// a group id, plus the number of groups.
type PackResult struct {
	// Assign maps each value to its group in [0, NumGroups).
	Assign *mpc.DistRelation // schema (valueAttr, groupAttr)
	// NumGroups is the total number of groups created.
	NumGroups int
}

// Pack implements the parallel-packing primitive: given one (value,
// weight) row per value with every weight ≤ capacity, it groups values
// so each group's total weight is at most capacity, using next-fit
// locally per server plus one control round to allocate disjoint global
// group ids. At most 2·W/capacity + p groups are created (W the total
// weight) — the paper's variant guarantees all but one group at least
// half full; per-server next-fit relaxes that to all but p groups,
// which keeps every server-count bound in Theorems 1–5 intact (see
// DESIGN.md).
//
// The driver runs every server's next-fit, over its rows by ascending
// value, into one pooled scratch arena; after the control round, one
// Local step writes each server's (value, group) rows in that order.
func Pack(g *mpc.Group, weights *mpc.DistRelation, valueAttr, weightAttr, groupAttr int, capacity int64) PackResult {
	if capacity <= 0 {
		panic("primitives: Pack capacity must be positive")
	}
	p, n := len(weights.Frags), weights.Len()
	vp, wp, arity := weights.Schema.Pos(valueAttr), weights.Schema.Pos(weightAttr), weights.Schema.Len()
	sc := relation.GetArena(2 * n)[:2*n]
	offs := make([]int, 2*p+1)
	s := packStep{vals: sc[:n], bin: sc[n:], base: offs[:p+1], first: offs[p+1:],
		out: relation.NewSchema(valueAttr, groupAttr)}
	s.vp, s.gp = s.out.Pos(valueAttr), s.out.Pos(groupAttr)
	for i, f := range weights.Frags {
		lo, hi := s.base[i], s.base[i]+f.Len()
		s.base[i+1] = hi
		// Values are distinct — one row per value — so an unstable sort
		// of the row indices by value is deterministic.
		order, data := s.vals[lo:hi], f.Data()
		for r := range order {
			order[r] = relation.Value(r)
		}
		slices.SortFunc(order, func(a, b relation.Value) int {
			return cmp.Compare(data[int(a)*arity+vp], data[int(b)*arity+vp])
		})
		bin, load := relation.Value(0), int64(0)
		for r, ri := range order {
			w := data[int(ri)*arity+wp]
			if w > capacity {
				panic("primitives: Pack weight exceeds capacity")
			}
			if r > 0 && load+w > capacity {
				bin, load = bin+1, 0
			}
			load += w
			s.bin[lo+r] = bin
			order[r] = data[int(ri)*arity+vp] // the row's value replaces its index
		}
	}
	// Control round: every server learns its first global group id (one
	// integer per server).
	for i := range s.first {
		s.first[i] = 1
	}
	g.Span("pack", func() { g.ChargeControl(s.first) })
	total := 0
	for i := range s.first {
		s.first[i] = total
		if lo, hi := s.base[i], s.base[i+1]; hi > lo {
			total += int(s.bin[hi-1]) + 1
		}
	}
	assign := mpc.Local(g, weights, s)
	relation.PutArena(sc)
	return PackResult{Assign: assign, NumGroups: total}
}

// packStep is Pack's output step: server i's rows are its values
// vals[base[i]:base[i+1]], ascending, each with group first[i] plus its
// local bin; vp and gp are the output columns.
type packStep struct {
	vals, bin   []relation.Value
	base, first []int
	vp, gp      int
	out         relation.Schema
}

func (s packStep) Schema() relation.Schema { return s.out }

func (s packStep) Scratch(int, *relation.Relation) int { return 0 }

func (s packStep) Count(_ int, in *relation.Relation, _ []relation.Value) int { return in.Len() }

func (s packStep) Fill(i int, _ *relation.Relation, _, dst []relation.Value, rows int) {
	lo := s.base[i]
	for r := range rows {
		dst[2*r+s.vp], dst[2*r+s.gp] = s.vals[lo+r], relation.Value(s.first[i])+s.bin[lo+r]
	}
}

// Union concatenates distributed relations of one schema server by
// server, in argument order, as one exact-size Local step: no
// communication. A single relation is its own union.
func Union(g *mpc.Group, ds []*mpc.DistRelation) *mpc.DistRelation {
	if len(ds) == 1 {
		return ds[0]
	}
	for _, d := range ds[1:] {
		if !d.Schema.Equal(ds[0].Schema) || len(d.Frags) != len(ds[0].Frags) {
			panic("primitives: Union of mismatched relations")
		}
	}
	return mpc.Local(g, ds[0], unionStep(ds))
}

// unionStep is Union's step: fragment i of every part, in order.
type unionStep []*mpc.DistRelation

func (u unionStep) Schema() relation.Schema { return u[0].Schema }

func (u unionStep) Scratch(int, *relation.Relation) int { return 0 }

func (u unionStep) Count(i int, _ *relation.Relation, _ []relation.Value) int {
	n := 0
	for _, d := range u {
		n += d.Frags[i].Len()
	}
	return n
}

func (u unionStep) Fill(i int, _ *relation.Relation, _, dst []relation.Value, _ int) {
	for _, d := range u {
		dst = dst[copy(dst, d.Frags[i].Data()):]
	}
}
