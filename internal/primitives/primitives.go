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
			// All pre fragments share outSchema, so the key positions can
			// be hoisted out of the (pure) route closure.
			kpos := outSchema.Positions(keyAttrs)
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
	s := aggregate{kpos: in.Positions(keyAttrs), vpos: in.Pos(valAttr), srcPos: make([]int, out.Len()), out: out}
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
func Pack(g *mpc.Group, weights *mpc.DistRelation, valueAttr, weightAttr, groupAttr int, capacity int64) PackResult {
	if capacity <= 0 {
		panic("primitives: Pack capacity must be positive")
	}
	outSchema := relation.NewSchema(valueAttr, groupAttr)
	binsPerServer := make([]int, len(weights.Frags))
	// Pass 1: local next-fit to count bins per server.
	type localAssign struct {
		value relation.Value
		bin   int
	}
	local := make([][]localAssign, len(weights.Frags))
	for s, f := range weights.Frags {
		// Deterministic order: visit rows by ascending value via an index
		// permutation (values are distinct — one row per value — so an
		// unstable sort cannot reorder ties).
		vp := f.Schema().Pos(valueAttr)
		wp := f.Schema().Pos(weightAttr)
		perm := make([]int32, f.Len())
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortFunc(perm, func(a, b int32) int {
			av, bv := f.Row(int(a))[vp], f.Row(int(b))[vp]
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			return 0
		})
		bin, binLoad := 0, int64(0)
		opened := false
		for _, ri := range perm {
			t := f.Row(int(ri))
			w := t[wp]
			if w > capacity {
				panic("primitives: Pack weight exceeds capacity")
			}
			if !opened {
				opened = true
			} else if binLoad+w > capacity {
				bin++
				binLoad = 0
			}
			binLoad += w
			local[s] = append(local[s], localAssign{value: t[vp], bin: bin})
		}
		if opened {
			binsPerServer[s] = bin + 1
		}
	}
	// Control round: every server learns its global bin offset (one
	// integer per server).
	control := make([]int, len(weights.Frags))
	for i := range control {
		control[i] = 1
	}
	g.Span("pack", func() { g.ChargeControl(control) })
	offsets := make([]int, len(weights.Frags))
	total := 0
	for s, b := range binsPerServer {
		offsets[s] = total
		total += b
	}
	assign := mpc.NewDist(outSchema, len(weights.Frags))
	vp := outSchema.Pos(valueAttr)
	gp := outSchema.Pos(groupAttr)
	nt := make(relation.Tuple, 2)
	for s, as := range local {
		assign.Frags[s].Grow(len(as))
		for _, a := range as {
			nt[vp] = a.value
			nt[gp] = int64(offsets[s] + a.bin)
			assign.Frags[s].Add(nt)
		}
	}
	return PackResult{Assign: assign, NumGroups: total}
}
