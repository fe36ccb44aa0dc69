package primitives

import (
	"coverpack/internal/hashtab"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
)

// This file implements the distributed join-size statistics the generic
// algorithm of Section 3 needs: the sizes of sub-joins |⊗(T, R, S)|,
// optionally grouped by an attribute (the heavy/light statistics of
// Step 1). The paper computes them with the free-connex join-aggregate
// algorithm of [16]; this implementation uses the equivalent
// Yannakakis-style bottom-up count DP over the join tree, built from
// ReduceByKey and hash partitioning, so every unit of communication is
// charged to the group (see the substitution table in DESIGN.md).
//
// Inputs describe one *connected component* of a join tree: children[e]
// lists tree children, root is the component's root. Relations must be
// duplicate-free (the workload generators guarantee this; semi-join
// reduction preserves it).

// weightedDP returns, for the subtree rooted at e, a distributed
// relation with schema vars(e) ∪ {weightAttr} where each tuple of R(e)
// carries the number of subtree join combinations consistent with it.
// Tuples with zero weight are dropped.
func weightedDP(g *mpc.Group, rels []*mpc.DistRelation, children [][]int, e, weightAttr int) *mpc.DistRelation {
	in := rels[e].Schema
	outSchema := in.Union(relation.NewSchema(weightAttr))
	cur := mpc.Local(g, rels[e], unitWeights(in, outSchema, weightAttr))
	for _, c := range children[e] {
		childW := weightedDP(g, rels, children, c, weightAttr)
		common := commonExcept(cur.Schema, childW.Schema, weightAttr)
		agg := ReduceByKey(g, childW, common, weightAttr)
		cur = multiplyWeights(g, cur, agg, common, weightAttr)
	}
	return cur
}

// unitWeight is weightedDP's base step: every row, with weight 1 in
// the weight column.
type unitWeight struct {
	srcPos []int // output column -> input column, −1 for the weight
	out    relation.Schema
}

// unitWeights is the unitWeight from schema in to out = in ∪ {weightAttr}.
func unitWeights(in, out relation.Schema, weightAttr int) unitWeight {
	s := unitWeight{srcPos: make([]int, out.Len()), out: out}
	for i := range s.srcPos {
		if a := out.Attr(i); a == weightAttr {
			s.srcPos[i] = -1
		} else {
			s.srcPos[i] = in.Pos(a)
		}
	}
	return s
}

func (s unitWeight) Schema() relation.Schema { return s.out }

func (s unitWeight) Scratch(int, *relation.Relation) int { return 0 }

func (s unitWeight) Count(_ int, in *relation.Relation, _ []relation.Value) int { return in.Len() }

func (s unitWeight) Fill(_ int, in *relation.Relation, _, dst []relation.Value, rows int) {
	k := 0
	for i := 0; i < rows; i++ {
		t := in.Row(i)
		for _, sp := range s.srcPos {
			if sp < 0 {
				dst[k] = 1
			} else {
				dst[k] = t[sp]
			}
			k++
		}
	}
}

// commonExcept returns the shared attributes of two schemas, excluding
// the synthetic weight attribute.
func commonExcept(a, b relation.Schema, weightAttr int) []int {
	var out []int
	for _, x := range a.Common(b) {
		if x != weightAttr {
			out = append(out, x)
		}
	}
	return out
}

// multiplyWeights joins the per-key aggregated child weights into the
// parent's weight column: both sides are partitioned by the key, then
// each parent tuple's weight is multiplied by the matching aggregate
// (dropped when no aggregate matches — the child has no join partner).
// With an empty key (Cartesian child), the child total is broadcast, and
// every server's aggregates form the one group of the empty key.
func multiplyWeights(g *mpc.Group, parent, agg *mpc.DistRelation, key []int, weightAttr int) *mpc.DistRelation {
	if len(key) == 0 {
		ba := g.Broadcast(agg)
		return mpc.Local(g, parent, multiplyStep(parent.Schema, ba, key, weightAttr))
	}
	pp := g.HashPartition(parent, key)
	ap := g.HashPartition(agg, key)
	return mpc.Local(g, pp, multiplyStep(pp.Schema, ap, key, weightAttr))
}

// multiply is multiplyWeights' per-server step. Count sums server i's
// aggregates per key in a borrowed table, the sums at the scratch's
// tail, then lists every parent row with a nonzero matching sum and
// that sum, at scratch[2k] and scratch[2k+1]; Fill copies the listed
// rows with their weights multiplied.
type multiply struct {
	agg          []*relation.Relation
	akpos, pkpos []int // key columns of the aggregates and of the parent
	awp, wp      int   // weight columns
	out          relation.Schema
}

// multiplyStep is the multiply of parent fragments of schema ps by the
// aggregates agg on key.
func multiplyStep(ps relation.Schema, agg *mpc.DistRelation, key []int, weightAttr int) multiply {
	akpos := agg.Schema.AppendPositions(make([]int, 0, 2*len(key)), key)
	return multiply{agg: agg.Frags, akpos: akpos, pkpos: ps.AppendPositions(akpos[len(akpos):], key),
		awp: agg.Schema.Pos(weightAttr), wp: ps.Pos(weightAttr), out: ps}
}

func (s multiply) Schema() relation.Schema { return s.out }

func (s multiply) Scratch(i int, in *relation.Relation) int { return 2*in.Len() + s.agg[i].Len() }

func (s multiply) Count(i int, in *relation.Relation, sc []relation.Value) int {
	af := s.agg[i]
	sums := sc[2*in.Len() : 2*in.Len() : len(sc)]
	var tab hashtab.Table
	tab.Init(len(s.akpos), af.Len())
	for j := 0; j < af.Len(); j++ {
		t := af.Row(j)
		e, found := tab.Insert(t, s.akpos)
		if !found {
			sums = append(sums, 0)
		}
		sums[e] += t[s.awp]
	}
	n := 0
	for j := 0; j < in.Len(); j++ {
		if e := tab.Find(in.Row(j), s.pkpos); e >= 0 && sums[e] != 0 {
			sc[2*n], sc[2*n+1] = relation.Value(j), sums[e]
			n++
		}
	}
	tab.Release()
	return n
}

func (s multiply) Fill(_ int, in *relation.Relation, sc, dst []relation.Value, rows int) {
	a := in.Schema().Len()
	for k := 0; k < rows; k++ {
		row := dst[k*a : (k+1)*a]
		copy(row, in.Row(int(sc[2*k])))
		row[s.wp] *= sc[2*k+1]
	}
}

// JoinCount computes the exact join size of one join-tree component:
// |⋈_{e in component} R(e)|. One control round reports the per-server
// partial sums to the driver.
func JoinCount(g *mpc.Group, rels []*mpc.DistRelation, children [][]int, root, weightAttr int) int64 {
	w := weightedDP(g, rels, children, root, weightAttr)
	control := make([]int, g.Size())
	if len(control) > 0 {
		control[0] = g.Size()
	}
	g.ChargeControl(control)
	var total int64
	wp := w.Schema.Pos(weightAttr)
	for _, f := range w.Frags {
		for i := 0; i < f.Len(); i++ {
			total += f.Row(i)[wp]
		}
	}
	return total
}

// JoinCountBy computes the join size of one join-tree component grouped
// by attribute x, which must belong to the root relation's schema. The
// result has schema (x, weightAttr), hash-partitioned by x — exactly the
// Step 1 statistics of the generic algorithm ("the result is in forms
// of (t, w(t)) for each assignment t ∈ dom(x)").
func JoinCountBy(g *mpc.Group, rels []*mpc.DistRelation, children [][]int, root, x, weightAttr int) *mpc.DistRelation {
	if !rels[root].Schema.Has(x) {
		panic("primitives: JoinCountBy root relation lacks the group-by attribute")
	}
	w := weightedDP(g, rels, children, root, weightAttr)
	return ReduceByKey(g, w, []int{x}, weightAttr)
}
