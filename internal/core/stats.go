package core

import (
	"sort"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/plan"
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

// gatherRows filters a distributed relation locally to the rows whose x
// value is in values and gathers them to the coordinator (charged via
// Gather).
func gatherRows(g *mpc.Group, d *mpc.DistRelation, x int, values map[relation.Value]bool) *relation.Relation {
	return g.Gather(g.Local(d, func(_ int, f *relation.Relation) *relation.Relation {
		return f.SelectIn(x, values, true)
	}))
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
// filtered locally and gathered (charged). Missing values read as 0.
func (ex *executor) degreesForValues(g *mpc.Group, degs *mpc.DistRelation, x int, values map[relation.Value]bool) map[relation.Value]int64 {
	if len(values) == 0 {
		return map[relation.Value]int64{}
	}
	chargeSetBroadcast(g, len(values))
	rows := gatherRows(g, degs, x, values)
	out := make(map[relation.Value]int64, rows.Len())
	xp := rows.Schema().Pos(x)
	cp := rows.Schema().Pos(ex.cntAttr)
	for i := 0; i < rows.Len(); i++ {
		t := rows.Row(i)
		out[t[xp]] = t[cp]
	}
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
	joined := mpc.NewDist(joinedSchema, g.Size())
	gp := joinedSchema.Pos(ex.grpAttr)
	cpos := joinedSchema.Pos(ex.cntAttr)
	axp := ap.Schema.Pos(x)
	agp := ap.Schema.Pos(ex.grpAttr)
	cxp := cp.Schema.Pos(x)
	ccp := cp.Schema.Pos(ex.cntAttr)
	nt := make(relation.Tuple, 2)
	for i := range cp.Frags {
		cf, af := cp.Frags[i], ap.Frags[i]
		groupOf := make(map[relation.Value]int64, af.Len())
		for j := 0; j < af.Len(); j++ {
			t := af.Row(j)
			groupOf[t[axp]] = t[agp]
		}
		out := relation.New(joinedSchema)
		for j := 0; j < cf.Len(); j++ {
			t := cf.Row(j)
			if gid, ok := groupOf[t[cxp]]; ok {
				nt[gp] = gid
				nt[cpos] = t[ccp]
				out.Add(nt)
			}
		}
		joined.Frags[i] = out
	}
	reduced := primitives.ReduceByKey(g, joined, []int{ex.grpAttr}, ex.cntAttr)
	rows := g.Gather(reduced)
	out := make(map[int64]int64, rows.Len())
	rgp := rows.Schema().Pos(ex.grpAttr)
	rcp := rows.Schema().Pos(ex.cntAttr)
	for i := 0; i < rows.Len(); i++ {
		t := rows.Row(i)
		out[t[rgp]] = t[rcp]
	}
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
// evaluate Ψ(T, R_a, S, L) and Ψ(T', R_j, S, L) for every subset S.
type statsContext struct {
	ex      *executor
	g       *mpc.Group
	rels    map[int]*mpc.DistRelation
	x       int
	heavy   map[relation.Value]bool
	assign  *mpc.DistRelation // nil when there are no light groups
	memo    map[string]*compStats
	treeSub *hypergraph.JoinTree // subquery-indexed tree (T or T')
	origOf  []int
	subOf   map[int]int
}

func newStatsContext(ex *executor, g *mpc.Group, rels map[int]*mpc.DistRelation,
	tree *hypergraph.JoinTree, origOf []int, x int,
	heavy map[relation.Value]bool, assign *mpc.DistRelation) *statsContext {
	subOf := make(map[int]int, len(origOf))
	for i, e := range origOf {
		subOf[e] = i
	}
	return &statsContext{
		ex: ex, g: g, rels: rels, x: x, heavy: heavy, assign: assign,
		memo: make(map[string]*compStats), treeSub: tree, origOf: origOf, subOf: subOf,
	}
}

// componentsOf returns T[S] in original edge ids, for S given in
// original edge ids.
func (sc *statsContext) componentsOf(s hypergraph.EdgeSet) [][]int {
	var sub hypergraph.EdgeSet
	for _, e := range s.Edges() {
		sub.Add(sc.subOf[e])
	}
	var out [][]int
	for _, comp := range sc.treeSub.ConnectedComponentsOn(sub) {
		var orig []int
		for _, i := range comp.Edges() {
			orig = append(orig, sc.origOf[i])
		}
		sort.Ints(orig)
		out = append(out, orig)
	}
	return out
}

// statsFor computes (memoized) the distributed join-count statistics of
// one component, grouped by x when the component holds x.
func (sc *statsContext) statsFor(comp []int, vars map[int]hypergraph.VarSet) *compStats {
	key := keyOf(comp)
	if st, ok := sc.memo[key]; ok {
		return st
	}
	// Root the component at an x-holder when one exists, so JoinCountBy
	// can group by x at the root.
	root := -1
	for _, e := range comp {
		if vars[e].Contains(sc.x) {
			root = e
			break
		}
	}
	hasX := root >= 0
	if !hasX {
		root = comp[0]
	}
	children := sc.rerootedChildren(comp, root)
	relsArr := make([]*mpc.DistRelation, sc.ex.q.NumEdges())
	for _, e := range comp {
		relsArr[e] = sc.rels[e]
	}
	st := &compStats{hasX: hasX}
	if hasX {
		counts := primitives.JoinCountBy(sc.g, relsArr, children, root, sc.x, sc.ex.cntAttr)
		st.byValue = sc.ex.degreesForValues(sc.g, counts, sc.x, sc.heavy)
		if sc.assign != nil {
			st.byGroup = sc.ex.groupSums(sc.g, counts, sc.assign, sc.x)
		}
	} else {
		st.scalar = primitives.JoinCount(sc.g, relsArr, children, root, sc.ex.cntAttr)
	}
	sc.memo[key] = st
	return st
}

// rerootedChildren builds children arrays (original-id space) for the
// component re-rooted at root, using the tree's adjacency restricted to
// the component.
func (sc *statsContext) rerootedChildren(comp []int, root int) [][]int {
	inComp := make(map[int]bool, len(comp))
	for _, e := range comp {
		inComp[e] = true
	}
	adj := make(map[int][]int)
	for _, e := range comp {
		p := sc.treeSub.Parent[sc.subOf[e]]
		if p >= 0 {
			po := sc.origOf[p]
			if inComp[po] {
				adj[e] = append(adj[e], po)
				adj[po] = append(adj[po], e)
			}
		}
	}
	children := make([][]int, sc.ex.q.NumEdges())
	seen := map[int]bool{root: true}
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		ns := append([]int(nil), adj[u]...)
		sort.Ints(ns)
		for _, v := range ns {
			if !seen[v] {
				seen[v] = true
				children[u] = append(children[u], v)
				queue = append(queue, v)
			}
		}
	}
	return children
}

// psiHeavy evaluates max over nonempty S ⊆ candidates of
// Ψ(T, R_a, S, L) = |⊗(T, R_a, S)| / L^{|S|} for heavy value a.
func (sc *statsContext) psiHeavy(candidates []int, vars map[int]hypergraph.VarSet, a relation.Value, L float64) float64 {
	best := 0.0
	for _, s := range hypergraph.SubsetsOf(candidates) {
		if s.IsEmpty() {
			continue
		}
		prod := 1.0
		for _, comp := range sc.componentsOf(s) {
			st := sc.statsFor(comp, vars)
			if st.hasX {
				prod *= float64(st.byValue[a])
			} else {
				prod *= float64(st.scalar)
			}
		}
		v := prod / powInt(L, s.Len())
		if v > best {
			best = v
		}
	}
	return best
}

// psiGroup evaluates the same maximum for light group j, with the
// per-component count summed over the group's values.
func (sc *statsContext) psiGroup(candidates []int, vars map[int]hypergraph.VarSet, j int64, L float64) float64 {
	best := 0.0
	for _, s := range hypergraph.SubsetsOf(candidates) {
		if s.IsEmpty() {
			continue
		}
		prod := 1.0
		for _, comp := range sc.componentsOf(s) {
			st := sc.statsFor(comp, vars)
			if st.hasX {
				prod *= float64(st.byGroup[j])
			} else {
				prod *= float64(st.scalar)
			}
		}
		v := prod / powInt(L, s.Len())
		if v > best {
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

func keyOf(edges []int) string {
	return edgesSet(edges).Key()
}

// allocProduct implements the PathOptimal allocation: servers =
// ⌈max over S of Π_{e∈S} size(e) / L^{|S|}⌉ with S ranging over subsets
// of the integral cover plus all singletons.
func allocProduct(cover hypergraph.EdgeSet, all []int, sizeOf func(e int) int64, L float64) int {
	best := 1.0
	for _, s := range hypergraph.SubsetsOf(cover.Edges()) {
		if s.IsEmpty() {
			continue
		}
		prod := 1.0
		for _, e := range s.Edges() {
			prod *= float64(sizeOf(e))
		}
		if v := prod / powInt(L, s.Len()); v > best {
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
func (ex *executor) allocate(g *mpc.Group, edges hypergraph.EdgeSet, vars map[int]hypergraph.VarSet,
	rels map[int]*mpc.DistRelation) int {

	qc := hypergraph.NewQuery("alloc")
	var origOf []int
	for _, e := range edges.Edges() {
		qc.AddEdgeVars(ex.q.Edge(e).Name, vars[e])
		origOf = append(origOf, e)
	}
	tree, ok := plan.GYO(qc)
	if !ok {
		return g.Size()
	}
	L := float64(ex.L)
	switch ex.strat {
	case PathOptimal:
		cover, err := coverFor(qc)
		if err != nil {
			return g.Size()
		}
		var coverOrig hypergraph.EdgeSet
		for _, i := range cover.Edges() {
			coverOrig.Add(origOf[i])
		}
		return allocProduct(coverOrig, edges.Edges(), func(e int) int64 {
			return int64(rels[e].Len())
		}, L)
	default:
		// Conservative: oracle sub-joins over the collected component,
		// one statistics round charged at the true O(total/p) load.
		total := 0
		collected := make([]*relation.Relation, len(origOf))
		for i, e := range origOf {
			collected[i] = rels[e].Collect()
			total += collected[i].Len()
		}
		units := make([]int, g.Size())
		for i := range units {
			units[i] = total/g.Size() + 1
		}
		g.ChargeControl(units)
		in := &relation.Instance{Query: qc, Relations: collected}
		best := 1.0
		for _, s := range hypergraph.SubsetsOf(qc.AllEdges().Edges()) {
			if s.IsEmpty() {
				continue
			}
			if v := float64(SubjoinSize(in, tree, s)) / powInt(L, s.Len()); v > best {
				best = v
			}
		}
		return ceilPos(best)
	}
}
