package core

import (
	"coverpack/internal/hashtab"
	"coverpack/internal/mpc"
	"coverpack/internal/primitives"
	"coverpack/internal/relation"
)

// This file implements the Step 1 statistics of the generic algorithm
// (Section 3.1) and the server-allocation formulas Ψ (Sections 3.2 and
// 4.2). Per-value and per-group statistics are computed with the charged
// distributed machinery of internal/primitives; only the resulting small
// summaries (heavy-value lists ≤ Σ|R(e)|/L rows, per-group sums ≤ O(p)
// rows) are gathered to the driver, which matches the paper's free
// control channel for O(p)-size coordination data.

// groupJoin is groupSums' per-server step: every (x, cnt) row of the
// server whose x has an assignment row on the server becomes a (grp,
// cnt) row. Count looks x up in a borrowed table over the server's
// assignment rows, whose group ids sit at the scratch's tail, and lists
// each match's group id and count at scratch[2k] and scratch[2k+1];
// Fill lays them out.
type groupJoin struct {
	assign             relation.Frags
	axp, cxp           []int // x in the assignment and the count rows
	agp, ccp, gp, cpos int   // group id and count columns, in and out
	out                relation.Schema
}

func (s groupJoin) Schema() relation.Schema { return s.out }

func (s groupJoin) Scratch(i int, in relation.View) int { return 2*in.Len() + s.assign.FragLen(i) }

func (s groupJoin) Count(i int, in relation.View, sc []relation.Value) int {
	var groupOf hashtab.Table
	gids := groupIndex(&groupOf, sc[2*in.Len():2*in.Len():len(sc)], s.assign.Frag(i), s.axp, s.agp)
	n := 0
	for j := 0; j < in.Len(); j++ {
		t := in.Row(j)
		if k := groupOf.Find(t, s.cxp); k >= 0 {
			sc[2*n], sc[2*n+1] = gids[k], t[s.ccp]
			n++
		}
	}
	groupOf.Release()
	return n
}

func (s groupJoin) Fill(_ int, _ relation.View, sc, dst []relation.Value, rows int) {
	for k := 0; k < rows; k++ {
		dst[2*k+s.gp], dst[2*k+s.cpos] = sc[2*k], sc[2*k+1]
	}
}

// groupIndex initializes groupOf as an index of the x values (column
// axp) of the assignment rows and appends to gids, at each entry's
// index, the group id (column agp) of its value's last row. It returns
// gids; the caller releases groupOf.
func groupIndex(groupOf *hashtab.Table, gids []relation.Value, rows relation.View, axp []int, agp int) []relation.Value {
	groupOf.Init(1, rows.Len())
	for j := 0; j < rows.Len(); j++ {
		t := rows.Row(j)
		if k, found := groupOf.Insert(t, axp); found {
			gids[k] = t[agp]
		} else {
			gids = append(gids, t[agp])
		}
	}
	return gids
}

// chargeSetBroadcast charges one round delivering a small driver-side
// set (heavy-value list) to every server of the group.
func chargeSetBroadcast(g *mpc.Group, size int) {
	units := make([]int, g.Size())
	for i := range units {
		units[i] = size
	}
	g.ChargeControl(units)
}

// degreesForValues extracts deg(v) for the given values from a degree
// relation (x, cnt): the value set is broadcast (charged), rows are
// filtered locally to the rows whose x value is in values and gathered
// to the coordinator (charged). Missing values read as 0.
func (ex *executor) degreesForValues(g *mpc.Group, degs *mpc.DistRelation, x int, values map[relation.Value]bool) map[relation.Value]int64 {
	if len(values) == 0 {
		return nil
	}
	chargeSetBroadcast(g, len(values))
	sel := mpc.Local(g, degs, relation.SelectInStep(degs.Schema, x, values, true))
	rows := g.Gather(sel)
	out := make(map[relation.Value]int64, rows.Len())
	xp := rows.Schema().Pos(x)
	cp := rows.Schema().Pos(ex.cntAttr)
	for i := 0; i < rows.Len(); i++ {
		t := rows.Row(i)
		out[t[xp]] = t[cp]
	}
	g.Free(sel)
	return out
}

// groupSums aggregates a per-value count relation (x, cnt) into
// per-group totals using the distributed Pack assignment (x, grp):
// both sides are co-partitioned by x, joined locally, reduced by group,
// and the O(#groups) result gathered. Groups with no rows read as 0.
func (ex *executor) groupSums(g *mpc.Group, counts, assign *mpc.DistRelation, x int) map[int64]int64 {
	cp := g.HashPartition(counts, []int{x})
	ap := g.HashPartition(assign, []int{x})
	joinedSchema := relation.NewSchema(ex.grpAttr, ex.cntAttr)
	joined := mpc.Local(g, cp, groupJoin{out: joinedSchema,
		assign: ap.Frags, axp: []int{ap.Schema.Pos(x)}, agp: ap.Schema.Pos(ex.grpAttr),
		cxp: []int{cp.Schema.Pos(x)}, ccp: cp.Schema.Pos(ex.cntAttr),
		gp: joinedSchema.Pos(ex.grpAttr), cpos: joinedSchema.Pos(ex.cntAttr),
	})
	reduced := primitives.ReduceByKey(g, joined, []int{ex.grpAttr}, ex.cntAttr)
	rows := g.Gather(reduced)
	out := make(map[int64]int64, rows.Len())
	rgp := rows.Schema().Pos(ex.grpAttr)
	rcp := rows.Schema().Pos(ex.cntAttr)
	for i := 0; i < rows.Len(); i++ {
		t := rows.Row(i)
		out[t[rgp]] = t[rcp]
	}
	g.Free(cp, ap, joined, reduced)
	return out
}

// compStats carries the sub-join statistics of one join-tree component:
// either a scalar (no relation contains x) or per-heavy-value and
// per-light-group join counts.
type compStats struct {
	hasX    bool
	scalar  int64
	byValue map[relation.Value]int64
	byGroup map[int64]int64
}

// statsContext bundles what the conservative allocation needs to
// evaluate Ψ(T, R_a, S, L) or Ψ(T', R_j, S, L) for every subset S of one
// compiled psiPlan. Component statistics are computed on first use and
// memoized by component index.
type statsContext struct {
	ex     *executor
	g      *mpc.Group
	rels   []*mpc.DistRelation
	x      int
	heavy  map[relation.Value]bool
	assign *mpc.DistRelation // nil when there are no light groups
	plan   *psiPlan
	memo   []*compStats
}

func newStatsContext(ex *executor, g *mpc.Group, rels []*mpc.DistRelation, plan *psiPlan, x int,
	heavy map[relation.Value]bool, assign *mpc.DistRelation) *statsContext {
	return &statsContext{
		ex: ex, g: g, rels: rels, x: x, heavy: heavy, assign: assign,
		plan: plan, memo: make([]*compStats, len(plan.comps)),
	}
}

// statsFor computes (memoized) the distributed join-count statistics of
// component i, grouped by x when the component holds x.
func (sc *statsContext) statsFor(i int) *compStats {
	if st := sc.memo[i]; st != nil {
		return st
	}
	c := &sc.plan.comps[i]
	relsArr := make([]*mpc.DistRelation, len(sc.rels))
	for _, e := range c.edges {
		relsArr[e] = sc.rels[e]
	}
	st := &compStats{hasX: c.hasX}
	if c.hasX {
		counts := primitives.JoinCountBy(sc.g, relsArr, c.children, c.root, sc.x, sc.ex.cntAttr)
		st.byValue = sc.ex.degreesForValues(sc.g, counts, sc.x, sc.heavy)
		if sc.assign != nil {
			st.byGroup = sc.ex.groupSums(sc.g, counts, sc.assign, sc.x)
		}
		sc.g.Free(counts)
	} else {
		st.scalar = primitives.JoinCount(sc.g, relsArr, c.children, c.root, sc.ex.cntAttr)
	}
	sc.memo[i] = st
	return st
}

// psi evaluates max over the plan's subsets S of |⊗(T, R, S)| / L^{|S|},
// where an x-holding component counts pick(stats) (its count for one
// heavy value or one light group) and any other its scalar count.
func (sc *statsContext) psi(L float64, pick func(*compStats) int64) float64 {
	best := 0.0
	for _, s := range sc.plan.subsets {
		prod := 1.0
		for _, i := range s.comps {
			st := sc.statsFor(i)
			if st.hasX {
				prod *= float64(pick(st))
			} else {
				prod *= float64(st.scalar)
			}
		}
		if v := prod / powInt(L, s.size); v > best {
			best = v
		}
	}
	return best
}

func powInt(base float64, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out *= base
	}
	return out
}

// allocProduct implements the PathOptimal allocation: servers =
// ⌈max over S of Π_{e∈S} size(e) / L^{|S|}⌉ with S ranging over the
// nonempty subsets of the integral cover plus all singletons.
func allocProduct(coverSubsets [][]int, all []int, sizeOf func(e int) int64, L float64) int {
	best := 1.0
	for _, s := range coverSubsets {
		prod := 1.0
		for _, e := range s {
			prod *= float64(sizeOf(e))
		}
		if v := prod / powInt(L, len(s)); v > best {
			best = v
		}
	}
	for _, e := range all {
		if v := float64(sizeOf(e)) / L; v > best {
			best = v
		}
	}
	return ceilPos(best)
}

func ceilPos(v float64) int {
	n := int(v)
	if float64(n) < v {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// allocate computes the server count for a Case II component branch.
// PathOptimal uses the product form over the component's integral
// cover; Conservative uses the sub-join form with a driver-side oracle
// plus one charged statistics round (the distributed computation's load
// shape, see DESIGN.md).
func (ex *executor) allocate(g *mpc.Group, c *component, rels []*mpc.DistRelation) int {
	if c.whole {
		return g.Size()
	}
	L := float64(ex.L)
	if ex.strat == PathOptimal {
		return allocProduct(c.coverSubsets, c.edges, func(e int) int64 {
			return int64(rels[e].Len())
		}, L)
	}
	// Conservative: oracle sub-joins over the collected component, one
	// statistics round charged at the true O(total/p) load.
	total := 0
	collected := make([]*relation.Relation, len(c.edges))
	for i, e := range c.edges {
		all := rels[e].Collect()
		collected[i] = relation.FromData(all.Schema(), all.Data(), all.Len())
		total += all.Len()
	}
	units := make([]int, g.Size())
	for i := range units {
		units[i] = total/g.Size() + 1
	}
	g.ChargeControl(units)
	in := &relation.Instance{Query: c.qc, Relations: collected}
	best := 1.0
	for _, s := range c.subsets {
		if v := float64(SubjoinSize(in, c.tree, s)) / powInt(L, s.Len()); v > best {
			best = v
		}
	}
	return ceilPos(best)
}
