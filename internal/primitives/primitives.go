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
	pre := g.Local(d, func(_ int, f *relation.Relation) *relation.Relation {
		return localAggregate(f, keyAttrs, valAttr, outSchema)
	})
	return reduceAggregated(g, pre, keyAttrs, valAttr, outSchema)
}

// reduceAggregated is ReduceByKey after the first local pre-aggregation
// — the exchange tail shared with Degrees, which counts its partials in
// one pass. pre must hold at most one row per key per server, under
// outSchema. The local pre-aggregation emits no trace events, so whether
// it happens inside or before the span is unobservable.
func reduceAggregated(g *mpc.Group, pre *mpc.DistRelation, keyAttrs []int, valAttr int, outSchema relation.Schema) *mpc.DistRelation {
	agg := func(dd *mpc.DistRelation) *mpc.DistRelation {
		return g.Local(dd, func(_ int, f *relation.Relation) *relation.Relation {
			return localAggregate(f, keyAttrs, valAttr, outSchema)
		})
	}
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

// smallAggCutoff bounds localAggregate's linear-scan path: at or below
// it the O(rows·groups) scan over the output arena beats building a
// hash table, and the per-fragment allocation count drops from ~10 to
// ~3. Grouping semantics and first-seen output order are identical on
// both paths.
const smallAggCutoff = 32

// localAggregate sums valAttr per key group of f, producing rows under
// outSchema (keys ∪ {valAttr}) in first-seen key order — the hashtab's
// dense entry indices are exactly that order, replacing the legacy
// string-keyed maps plus explicit order slice.
func localAggregate(f *relation.Relation, keyAttrs []int, valAttr int, outSchema relation.Schema) *relation.Relation {
	if f.Len() == 0 {
		// Most fragments of a skewed exchange are empty; skip the table
		// and scratch allocations entirely.
		return relation.New(outSchema)
	}
	if f.Len() <= smallAggCutoff && outSchema.Len() <= 16 {
		return smallAggregate(f, valAttr, outSchema)
	}
	kpos := f.Schema().Positions(keyAttrs)
	vpos := f.Schema().Pos(valAttr)
	groups := hashtab.New(len(kpos), f.Len())
	sums := make([]int64, 0, f.Len())
	reps := make([]int32, 0, f.Len()) // entry -> representative row
	for i := 0; i < f.Len(); i++ {
		t := f.Row(i)
		e, found := groups.Insert(t, kpos)
		if !found {
			sums = append(sums, 0)
			reps = append(reps, int32(i))
		}
		sums[e] += t[vpos]
	}
	out := relation.New(outSchema)
	// Map each output column to its source column (or the sum).
	srcPos := make([]int, outSchema.Len())
	for i := range srcPos {
		if a := outSchema.Attr(i); a == valAttr {
			srcPos[i] = -1
		} else {
			srcPos[i] = f.Schema().Pos(a)
		}
	}
	out.Grow(groups.Len())
	nt := make(relation.Tuple, outSchema.Len())
	for e := 0; e < groups.Len(); e++ {
		rep := f.Row(int(reps[e]))
		for i, sp := range srcPos {
			if sp < 0 {
				nt[i] = sums[e]
			} else {
				nt[i] = rep[sp]
			}
		}
		out.Add(nt)
	}
	groups.Release()
	return out
}

// smallAggregate is the allocation-lean aggregation for tiny fragments:
// groups are found by scanning the rows already emitted to the output
// arena (every non-sum output column is a key column, so row equality
// on those columns is exactly key-group equality), and sums accumulate
// in place through row views — safe because the arena is grown to its
// maximum size up front and never reallocates mid-loop. Stack buffers
// (the caller checks outSchema.Len() ≤ 16) keep the scratch slices off
// the heap.
func smallAggregate(f *relation.Relation, valAttr int, outSchema relation.Schema) *relation.Relation {
	out := relation.New(outSchema)
	fs := f.Schema()
	vp := fs.Pos(valAttr)
	ovp := outSchema.Pos(valAttr)
	arity := outSchema.Len()
	var posBuf [16]int
	srcPos := posBuf[:arity]
	for i := range srcPos {
		if a := outSchema.Attr(i); a == valAttr {
			srcPos[i] = -1
		} else {
			srcPos[i] = fs.Pos(a)
		}
	}
	out.Grow(f.Len())
	var ntBuf [16]relation.Value
	nt := ntBuf[:arity]
	for i := 0; i < f.Len(); i++ {
		t := f.Row(i)
		found := false
		for e := 0; e < out.Len(); e++ {
			ot := out.Row(e)
			match := true
			for j, sp := range srcPos {
				if sp >= 0 && ot[j] != t[sp] {
					match = false
					break
				}
			}
			if match {
				ot[ovp] += t[vp]
				found = true
				break
			}
		}
		if !found {
			for j, sp := range srcPos {
				if sp < 0 {
					nt[j] = t[vp]
				} else {
					nt[j] = t[sp]
				}
			}
			out.Add(nt)
		}
	}
	return out
}

// Degrees computes, for each distinct value of attr in d, its degree
// (number of tuples holding it), as a distributed relation with schema
// (attr, countAttr), hash-partitioned by attr. This is the paper's
// reduce-by-key application to degree statistics: every server counts
// its fragment's column straight into (value, count) rows
// (relation.Degrees), and the exchange tail of ReduceByKey combines them.
func Degrees(g *mpc.Group, d *mpc.DistRelation, attr, countAttr int) *mpc.DistRelation {
	schema := relation.NewSchema(attr, countAttr)
	pre := g.Local(d, func(_ int, f *relation.Relation) *relation.Relation {
		return f.Degrees(attr, schema)
	})
	return reduceAggregated(g, pre, []int{attr}, countAttr, schema)
}

// HeavyFilter keeps the rows of a degree relation whose countAttr
// value exceeds threshold — the per-server heavy-value cut every
// skew-handling algorithm applies after Degrees.
func HeavyFilter(g *mpc.Group, degs *mpc.DistRelation, countAttr int, threshold int64) *mpc.DistRelation {
	return g.Local(degs, func(_ int, f *relation.Relation) *relation.Relation {
		return f.SelectGt(countAttr, threshold)
	})
}

// SemiJoin filters r to the tuples with a partner in s on their common
// attributes: both sides are hash-partitioned on the common attributes
// (one round each), then filtered locally. The result keeps r's schema,
// partitioned by the common attributes.
func SemiJoin(g *mpc.Group, r, s *mpc.DistRelation) *mpc.DistRelation {
	common := r.Schema.Common(s.Schema)
	if len(common) == 0 {
		if s.Len() == 0 {
			return mpc.NewDist(r.Schema, g.Size())
		}
		return r
	}
	rp := g.HashPartition(r, common)
	sp := g.HashPartition(s, common)
	out := mpc.NewDist(r.Schema, g.Size())
	g.Fork(len(rp.Frags), func(i int) {
		out.Frags[i] = rp.Frags[i].SemiJoinPar(sp.Frags[i], g)
	})
	// The local filter keeps rows in place, so the output inherits rp's
	// partitioning — the next semi-join of a reduce sweep on the same
	// key (or the pair join that follows it) skips the exchange.
	out.MarkPartitioned(common)
	return out
}

// SemiJoinReduceTree removes all dangling tuples of an acyclic instance
// with two sweeps of distributed semi-joins over the join tree (leaf to
// root, then root to leaf), as the paper's Section 2 notes following
// Yannakakis. children[e] lists the join-tree children of edge e;
// roots are the tree roots. O(1) rounds for constant-size queries.
func SemiJoinReduceTree(g *mpc.Group, rels []*mpc.DistRelation, children [][]int, roots []int) []*mpc.DistRelation {
	out := make([]*mpc.DistRelation, len(rels))
	copy(out, rels)
	g.Span("semi-join reduce", func() {
		var up func(e int)
		up = func(e int) {
			for _, c := range children[e] {
				up(c)
				out[e] = SemiJoin(g, out[e], out[c])
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
