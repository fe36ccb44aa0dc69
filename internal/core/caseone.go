package core

import (
	"sort"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/primitives"
	"coverpack/internal/relation"
)

// caseI handles a connected subquery with at least two relations:
// Section 3.1's Case I. It picks (x, S^x) via the strategy, computes the
// heavy/light statistics of Step 1, decomposes dom(x) (Step 2), and
// computes all subqueries in parallel (Step 3).
func (ex *executor) caseI(g *mpc.Group, alive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet,
	rels map[int]*mpc.DistRelation, ctx []*relation.Relation,
	tree *hypergraph.JoinTree, origOf []int, depth int) (int64, error) {

	ch := ex.choose(tree, origOf, vars)
	sxSet := edgesSet(ch.sx)
	ex.tracef(depth, "case I: x=%s S^x=%s", ex.q.AttrName(ch.x), ex.q.FormatEdges(sxSet))

	var total int64
	var err error
	g.Span("twig "+ex.q.AttrName(ch.x), func() {
		total, err = ex.caseIPeel(g, alive, vars, rels, ctx, tree, origOf, depth, ch, sxSet)
	})
	return total, err
}

// caseIPeel is the body of caseI, separated so the whole peel of x runs
// inside one named trace span.
func (ex *executor) caseIPeel(g *mpc.Group, alive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet,
	rels map[int]*mpc.DistRelation, ctx []*relation.Relation,
	tree *hypergraph.JoinTree, origOf []int, depth int, ch choice, sxSet hypergraph.EdgeSet) (int64, error) {

	L := int64(ex.L)
	x := ch.x

	// Relations containing x (E_x ⊇ S^x).
	var xHolders []int
	for _, e := range alive.Edges() {
		if vars[e].Contains(x) {
			xHolders = append(xHolders, e)
		}
	}

	// Step 1: degree statistics for x in every relation of E_x
	// (reduce-by-key), then the heavy set H(x, S^x) = values with degree
	// > L in some relation of S^x.
	degs := make(map[int]*mpc.DistRelation, len(xHolders))
	heavySet := make(map[relation.Value]bool)
	var heavyVals []relation.Value
	var pk primitives.PackResult
	heavyDeg := make(map[int]map[relation.Value]int64, len(xHolders))
	groupW := make(map[int]map[int64]int64, len(xHolders))
	g.Span("statistics", func() {
		for _, e := range xHolders {
			degs[e] = primitives.Degrees(g, rels[e], x, ex.cntAttr)
		}
		for _, e := range ch.sx {
			rows := gatherRows(g, degs[e], func(f *relation.Relation, t relation.Tuple) bool {
				return f.Get(t, ex.cntAttr) > L
			})
			xp := rows.Schema().Pos(x)
			for i := 0; i < rows.Len(); i++ {
				heavySet[rows.Row(i)[xp]] = true
			}
		}
		heavyVals = make([]relation.Value, 0, len(heavySet))
		for v := range heavySet { // map order is random; sorted below
			heavyVals = append(heavyVals, v)
		}
		sort.Slice(heavyVals, func(i, j int) bool { return heavyVals[i] < heavyVals[j] })

		// Light values: total degree over S^x, packed into groups of total
		// degree ≤ |S^x|·L (each light value has degree ≤ L per relation).
		merged := mpc.NewDist(relation.NewSchema(x, ex.cntAttr), g.Size())
		for _, e := range ch.sx {
			for i, f := range degs[e].Frags {
				merged.Frags[i].Append(f)
			}
		}
		sums := primitives.ReduceByKey(g, merged, []int{x}, ex.cntAttr)
		chargeSetBroadcast(g, len(heavySet))
		lightW := g.Local(sums, func(_ int, f *relation.Relation) *relation.Relation {
			out := relation.New(f.Schema())
			xp := f.Schema().Pos(x)
			for i := 0; i < f.Len(); i++ {
				if t := f.Row(i); !heavySet[t[xp]] {
					out.Add(t)
				}
			}
			return out
		})
		if lightW.Len() > 0 {
			pk = primitives.Pack(g, lightW, x, ex.cntAttr, ex.grpAttr, int64(len(ch.sx))*L)
		}

		// Per-branch input sizes for allocation and emptiness pruning.
		for _, e := range xHolders {
			heavyDeg[e] = ex.degreesForValues(g, degs[e], x, heavySet)
		}
		if pk.NumGroups > 0 {
			for _, e := range xHolders {
				groupW[e] = ex.groupSums(g, degs[e], pk.Assign, x)
			}
		}
	})

	// Branch planning: heavy branches first (sorted by value), then
	// light groups in id order; branches whose σ instance is empty on
	// any x-holder produce nothing and are skipped.
	type plan struct {
		heavyVal relation.Value
		group    int64
		isHeavy  bool
		servers  int
	}
	var plans []plan
	heavyBranch := make(map[relation.Value]int)
	groupBranch := make(map[int64]int)

	// Residual structures for allocation.
	subOf := make(map[int]int, len(origOf))
	for i, e := range origOf {
		subOf[e] = i
	}
	var sxSub hypergraph.EdgeSet
	for _, e := range ch.sx {
		sxSub.Add(subOf[e])
	}
	lightAlive := alive.Subtract(sxSet)
	treeLight := tree.RemoveEdges(sxSub)

	var scHeavy, scLight *statsContext
	var heavyCoverOrig, lightCoverOrig hypergraph.EdgeSet
	var assign *mpc.DistRelation
	if pk.NumGroups > 0 {
		assign = pk.Assign
	}
	switch ex.strat {
	case Conservative:
		scHeavy = newStatsContext(ex, g, rels, tree, origOf, x, heavySet, assign)
		scLight = newStatsContext(ex, g, rels, treeLight, origOf, x, heavySet, assign)
	case PathOptimal:
		heavyCoverOrig = ex.residualCover(alive, vars, hypergraph.NewVarSet(x))
		lightCoverOrig = ex.residualCover(lightAlive, vars, hypergraph.VarSet{})
	}

	sizeHeavy := func(a relation.Value, e int) int64 {
		if d, ok := heavyDeg[e]; ok {
			return d[a]
		}
		return int64(rels[e].Len())
	}
	sizeGroup := func(j int64, e int) int64 {
		if w, ok := groupW[e]; ok && vars[e].Contains(x) {
			return w[j]
		}
		return int64(rels[e].Len())
	}

	g.Span("allocation", func() {
		for _, a := range heavyVals {
			empty := false
			for _, e := range xHolders {
				if heavyDeg[e][a] == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			var servers int
			switch ex.strat {
			case Conservative:
				servers = ceilPos(scHeavy.psiHeavy(alive.Edges(), vars, a, float64(L)))
			case PathOptimal:
				a := a
				servers = allocProduct(heavyCoverOrig, alive.Edges(), func(e int) int64 {
					s := sizeHeavy(a, e)
					if s < 1 {
						s = 1
					}
					return s
				}, float64(L))
			}
			heavyBranch[a] = len(plans)
			plans = append(plans, plan{heavyVal: a, isHeavy: true, servers: servers})
		}
		for j := 0; j < pk.NumGroups; j++ {
			j64 := int64(j)
			empty := false
			for _, e := range xHolders {
				if groupW[e][j64] == 0 {
					empty = true
					break
				}
			}
			if empty {
				continue
			}
			var servers int
			switch ex.strat {
			case Conservative:
				servers = ceilPos(scLight.psiGroup(lightAlive.Edges(), vars, j64, float64(L)))
			case PathOptimal:
				servers = allocProduct(lightCoverOrig, lightAlive.Edges(), func(e int) int64 {
					s := sizeGroup(j64, e)
					if s < 1 {
						s = 1
					}
					return s
				}, float64(L))
			}
			groupBranch[j64] = len(plans)
			plans = append(plans, plan{group: j64, servers: servers})
		}
	})
	if len(plans) == 0 {
		ex.tracef(depth, "no viable branches (all empty)")
		return 0, nil
	}
	ex.tracef(depth, "branches: %d heavy, %d light groups, L=%d", len(heavyBranch), len(groupBranch), L)
	sizes := make([]int, len(plans))
	for i, p := range plans {
		sizes[i] = p.servers
	}

	// Step 3 routing: x-holders are split by value — heavy values to
	// their branch (round-robin), light values to their group's branch;
	// tuples of S^x relations are *replicated* across their light
	// branch's servers (they are the broadcast side of Step 3), others
	// spread round-robin. Relations without x are copied to every
	// branch. All movements are single Distribute exchanges.
	parts := make(map[int][]*mpc.DistRelation, alive.Len())
	// Per-branch send lists, shared across tuples: the pick closures
	// below run once (twice under the parallel engine) per tuple, and
	// the engines only read the returned slice, so allocating it per
	// call would dominate the exchange's allocation profile.
	unicast := make([][]mpc.BranchSend, len(plans))
	bcast := make([][]mpc.BranchSend, len(plans))
	for bi := range plans {
		unicast[bi] = []mpc.BranchSend{{Branch: bi}}
		bcast[bi] = []mpc.BranchSend{{Branch: bi, Broadcast: true}}
	}
	g.Span("heavy/light split", func() {
		for _, e := range alive.Edges() {
			if vars[e].Contains(x) {
				// Heavy tuples route straight from the current layout (the
				// heavy-value list was already broadcast, so every server
				// can classify locally). Partitioning them by x would
				// concentrate a heavy value's entire degree on one hash
				// destination — exactly the skew the algorithm exists to
				// avoid. Light tuples are first co-partitioned with the
				// Pack assignment by x (balanced: every light value has
				// degree ≤ L) to learn their group ids, then shipped.
				heavyPart := g.Local(rels[e], func(_ int, f *relation.Relation) *relation.Relation {
					out := relation.New(f.Schema())
					xp := f.Schema().Pos(x)
					// Count first so the arena is sized in one allocation.
					cnt := 0
					for i := 0; i < f.Len(); i++ {
						if heavySet[f.Row(i)[xp]] {
							cnt++
						}
					}
					if cnt == 0 {
						return out
					}
					out.Grow(cnt)
					for i := 0; i < f.Len(); i++ {
						if t := f.Row(i); heavySet[t[xp]] {
							out.Add(t)
						}
					}
					return out
				})
				hParts := g.DistributeSpread(heavyPart, sizes, func(f *relation.Relation, t relation.Tuple) []mpc.BranchSend {
					bi, ok := heavyBranch[f.Get(t, x)]
					if !ok {
						return nil
					}
					return unicast[bi]
				})

				lightPart := g.Local(rels[e], func(_ int, f *relation.Relation) *relation.Relation {
					out := relation.New(f.Schema())
					xp := f.Schema().Pos(x)
					cnt := 0
					for i := 0; i < f.Len(); i++ {
						if !heavySet[f.Row(i)[xp]] {
							cnt++
						}
					}
					if cnt == 0 {
						return out
					}
					out.Grow(cnt)
					for i := 0; i < f.Len(); i++ {
						if t := f.Row(i); !heavySet[t[xp]] {
							out.Add(t)
						}
					}
					return out
				})
				var lParts []*mpc.DistRelation
				if assign != nil && lightPart.Len() > 0 {
					relP := g.HashPartition(lightPart, []int{x})
					asgP := g.HashPartition(assign, []int{x})
					groupOf := make(map[*relation.Relation]map[relation.Value]int64)
					axp := asgP.Schema.Pos(x)
					agp := asgP.Schema.Pos(ex.grpAttr)
					for i := range relP.Frags {
						m := make(map[relation.Value]int64)
						af := asgP.Frags[i]
						for j := 0; j < af.Len(); j++ {
							t := af.Row(j)
							m[t[axp]] = t[agp]
						}
						groupOf[relP.Frags[i]] = m
					}
					lightSends := unicast
					if sxSet.Contains(e) {
						lightSends = bcast
					}
					lParts = g.DistributeSpread(relP, sizes, func(f *relation.Relation, t relation.Tuple) []mpc.BranchSend {
						m := groupOf[f]
						if m == nil {
							return nil
						}
						gid, ok := m[f.Get(t, x)]
						if !ok {
							return nil
						}
						bi, ok := groupBranch[gid]
						if !ok {
							return nil
						}
						return lightSends[bi]
					})
				}
				merged := make([]*mpc.DistRelation, len(plans))
				for bi := range plans {
					merged[bi] = hParts[bi]
					if lParts != nil {
						for s := range merged[bi].Frags {
							merged[bi].Frags[s].Append(lParts[bi].Frags[s])
						}
					}
				}
				parts[e] = merged
			} else {
				all := make([]mpc.BranchSend, len(plans))
				for bi := range plans {
					all[bi] = mpc.BranchSend{Branch: bi}
				}
				parts[e] = g.DistributeSpread(rels[e], sizes, func(*relation.Relation, relation.Tuple) []mpc.BranchSend { return all })
			}
		}
	})

	// Recurse into all branches in parallel.
	counts := make([]int64, len(plans))
	errs := make([]error, len(plans))
	branches := make([]mpc.Branch, len(plans))
	for bi, pl := range plans {
		bi, pl := bi, pl
		branches[bi] = mpc.Branch{
			Servers: pl.servers,
			Run: func(sub *mpc.Group) {
				if pl.isHeavy {
					sub.Span("heavy branch", func() {
						counts[bi], errs[bi] = ex.heavyBranch(sub, alive, vars, parts, ctx, x, pl.heavyVal, bi, depth)
					})
				} else {
					sub.Span("light branch", func() {
						counts[bi], errs[bi] = ex.lightBranch(sub, lightAlive, vars, parts, ctx, ch.sx, bi, depth)
					})
				}
			},
		}
	}
	g.Parallel(branches)
	var total int64
	for bi := range plans {
		if errs[bi] != nil {
			return 0, errs[bi]
		}
		total = relation.AddSat(total, counts[bi])
	}
	return total, nil
}

// heavyBranch computes the residual subquery Q_x on the σ_{x=a}
// instance: x is projected away everywhere (it is constant), the context
// is filtered consistently, and the whole algorithm recurses.
func (ex *executor) heavyBranch(sub *mpc.Group, alive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet,
	parts map[int][]*mpc.DistRelation, ctx []*relation.Relation, x int, a relation.Value, bi, depth int) (int64, error) {

	chargeCtx(sub, ctx)
	nvars := cloneVars(vars)
	nrels := make(map[int]*mpc.DistRelation, alive.Len())
	for _, e := range alive.Edges() {
		part := parts[e][bi]
		if nvars[e].Contains(x) {
			nv := nvars[e].Clone()
			nv.Remove(x)
			nvars[e] = nv
			ns := relation.NewSchema(nv.Attrs()...)
			if sub.Streaming() && part.Len() > sub.Size()*relation.StreamCutoff {
				part = sub.LocalStream(part, func(_ int, it relation.RowIterator) relation.RowIterator {
					return relation.Project(it, ns)
				})
			} else {
				part = sub.Local(part, func(_ int, f *relation.Relation) *relation.Relation {
					return f.ProjectTo(ns)
				})
			}
		}
		nrels[e] = part
	}
	nctx := make([]*relation.Relation, 0, len(ctx))
	for _, c := range ctx {
		if c.Schema().Has(x) {
			rest := hypergraph.NewVarSet(c.Schema().Attrs()...)
			rest.Remove(x)
			nctx = append(nctx, c.SelectEqProject(sub.Streaming(), x, a, rest.Attrs()...))
		} else {
			nctx = append(nctx, c)
		}
	}
	return ex.compute(sub, alive.Clone(), nvars, nrels, nctx, depth+1)
}

// lightBranch computes the residual subquery Q_y on the group's light
// instance: the S^x relations' σ tuples were replicated to every server
// of the branch and join the context; the rest recurses.
func (ex *executor) lightBranch(sub *mpc.Group, lightAlive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet,
	parts map[int][]*mpc.DistRelation, ctx []*relation.Relation, sx []int, bi, depth int) (int64, error) {

	chargeCtx(sub, ctx)
	nctx := append([]*relation.Relation(nil), ctx...)
	for _, e := range sx {
		bcast := parts[e][bi]
		nctx = append(nctx, bcast.Frags[0])
	}
	nrels := make(map[int]*mpc.DistRelation, lightAlive.Len())
	for _, e := range lightAlive.Edges() {
		nrels[e] = parts[e][bi]
	}
	return ex.compute(sub, lightAlive.Clone(), cloneVars(vars), nrels, nctx, depth+1)
}

// residualCover computes the integral cover of the (alive, vars minus
// drop) subquery in original edge ids.
func (ex *executor) residualCover(alive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet, drop hypergraph.VarSet) hypergraph.EdgeSet {
	qc := hypergraph.NewQuery("rescover")
	var origOf []int
	for _, e := range alive.Edges() {
		nv := vars[e].Subtract(drop)
		if nv.IsEmpty() {
			continue
		}
		qc.AddEdgeVars(ex.q.Edge(e).Name, nv)
		origOf = append(origOf, e)
	}
	if qc.NumEdges() == 0 {
		return hypergraph.EdgeSet{}
	}
	cover, err := coverFor(qc)
	if err != nil {
		return hypergraph.EdgeSet{}
	}
	var out hypergraph.EdgeSet
	for _, i := range cover.Edges() {
		out.Add(origOf[i])
	}
	return out
}
