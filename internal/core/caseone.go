package core

import (
	"sort"

	"coverpack/internal/hashtab"
	"coverpack/internal/mpc"
	"coverpack/internal/primitives"
	"coverpack/internal/relation"
)

// caseI handles a connected subquery with at least two relations:
// Section 3.1's Case I. The step fixes (x, S^x); caseI computes the
// heavy/light statistics of Step 1, decomposes dom(x) (Step 2), and
// computes all subqueries in parallel (Step 3).
func (ex *executor) caseI(g *mpc.Group, st *step, rels []*mpc.DistRelation,
	ctx []relation.View, depth int) (int64, error) {

	c := st.caseI
	if g.Recording() {
		note(g, depth, "case I: x=%s S^x=%s", ex.q.AttrName(c.x), ex.q.FormatEdges(c.sxSet))
	}
	var total int64
	var err error
	g.Span(c.span, func() {
		total, err = ex.caseIPeel(g, st, rels, ctx, depth)
	})
	return total, err
}

// caseIPeel is the body of caseI, separated so the whole peel of x runs
// inside one named trace span.
func (ex *executor) caseIPeel(g *mpc.Group, st *step, rels []*mpc.DistRelation,
	ctx []relation.View, depth int) (int64, error) {

	c := st.caseI
	L := int64(ex.L)
	x := c.x

	// Step 1: degree statistics for x in every relation of E_x
	// (reduce-by-key), then the heavy set H(x, S^x) = values with degree
	// > L in some relation of S^x.
	degs := make([]*mpc.DistRelation, len(rels))
	heavySet := make(map[relation.Value]bool)
	var heavyVals []relation.Value
	var pk primitives.PackResult
	heavyDeg := make([]map[relation.Value]int64, len(rels))
	groupW := make([]map[int64]int64, len(rels))
	g.Span("statistics", func() {
		for _, e := range c.xHolders {
			degs[e] = primitives.Degrees(g, rels[e], x, ex.cntAttr)
		}
		for _, e := range c.sx {
			rows := g.Gather(primitives.HeavyFilter(g, degs[e], ex.cntAttr, L))
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
		sxDegs := make([]*mpc.DistRelation, len(c.sx))
		for i, e := range c.sx {
			sxDegs[i] = degs[e]
		}
		sums := primitives.ReduceByKey(g, primitives.Union(g, sxDegs), []int{x}, ex.cntAttr)
		chargeSetBroadcast(g, len(heavySet))
		lightW := mpc.Local(g, sums, relation.SelectInStep(sums.Schema, x, heavySet, false))
		if lightW.Len() > 0 {
			pk = primitives.Pack(g, lightW, x, ex.cntAttr, ex.grpAttr, int64(len(c.sx))*L)
		}

		// Per-branch input sizes for allocation and emptiness pruning.
		for _, e := range c.xHolders {
			heavyDeg[e] = ex.degreesForValues(g, degs[e], x, heavySet)
		}
		if pk.NumGroups > 0 {
			for _, e := range c.xHolders {
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

	var scHeavy, scLight *statsContext
	var assign *mpc.DistRelation
	if pk.NumGroups > 0 {
		assign = pk.Assign
	}
	if ex.strat == Conservative {
		scHeavy = newStatsContext(ex, g, rels, c.psiHeavy, x, heavySet, assign)
		scLight = newStatsContext(ex, g, rels, c.psiLight, x, heavySet, assign)
	}

	// Allocation inputs: an x-holder's size in a branch is its degree
	// there, any other relation goes whole. Sizes read at least 1.
	sizeHeavy := func(a relation.Value, e int) int64 {
		s := int64(rels[e].Len())
		if st.vars[e].Contains(x) {
			s = heavyDeg[e][a]
		}
		if s < 1 {
			s = 1
		}
		return s
	}
	sizeGroup := func(j int64, e int) int64 {
		s := int64(rels[e].Len())
		if w := groupW[e]; w != nil {
			s = w[j]
		}
		if s < 1 {
			s = 1
		}
		return s
	}

	g.Span("allocation", func() {
		for _, a := range heavyVals {
			empty := false
			for _, e := range c.xHolders {
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
				servers = ceilPos(scHeavy.psi(float64(L), func(cs *compStats) int64 { return cs.byValue[a] }))
			case PathOptimal:
				a := a
				servers = allocProduct(c.heavyCover, st.live, func(e int) int64 { return sizeHeavy(a, e) }, float64(L))
			}
			heavyBranch[a] = len(plans)
			plans = append(plans, plan{heavyVal: a, isHeavy: true, servers: servers})
		}
		for j := 0; j < pk.NumGroups; j++ {
			j64 := int64(j)
			empty := false
			for _, e := range c.xHolders {
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
				servers = ceilPos(scLight.psi(float64(L), func(cs *compStats) int64 { return cs.byGroup[j64] }))
			case PathOptimal:
				servers = allocProduct(c.lightCover, c.lightLive, func(e int) int64 { return sizeGroup(j64, e) }, float64(L))
			}
			groupBranch[j64] = len(plans)
			plans = append(plans, plan{group: j64, servers: servers})
		}
	})
	if len(plans) == 0 {
		if g.Recording() {
			note(g, depth, "no viable branches (all empty)")
		}
		return 0, nil
	}
	if g.Recording() {
		note(g, depth, "branches: %d heavy, %d light groups, L=%d", len(heavyBranch), len(groupBranch), L)
	}
	sizes := make([]int, len(plans))
	for i, p := range plans {
		sizes[i] = p.servers
	}

	// Step 3 routing: x-holders are split by value — heavy values to
	// their branch (round-robin), light values to their group's branch;
	// tuples of S^x relations are *replicated* across their light
	// branch's servers (they are the broadcast side of Step 3), others
	// spread round-robin. Both are DistributeSpread exchanges, and each
	// tuple lands in exactly one branch, so a heavy branch's part is the
	// heavy exchange's and a light branch's the light exchange's.
	// Relations without x are copied to every branch by one Spread.
	parts := make([][]mpc.DistRelation, len(rels))
	nHeavy := len(heavyBranch) // plans list the heavy branches first
	g.Span("heavy/light split", func() {
		for _, e := range st.live {
			if !st.vars[e].Contains(x) {
				parts[e] = g.Spread(rels[e], sizes)
				continue
			}
			// Heavy tuples route straight from the current layout (the
			// heavy-value list was already broadcast, so every server can
			// classify locally). Partitioning them by x would concentrate
			// a heavy value's entire degree on one hash destination —
			// exactly the skew the algorithm exists to avoid. Light tuples
			// are first co-partitioned with the Pack assignment by x
			// (balanced: every light value has degree ≤ L) to learn their
			// group ids, then shipped. The heavy pick drops every tuple
			// outside heavyBranch, so it selects the heavy tuples as it
			// routes them.
			rs := rels[e].Schema
			hxp := rs.Pos(x)
			parts[e] = g.DistributeSpread(rels[e], sizes, false, func(t relation.Tuple) int {
				if bi, ok := heavyBranch[t[hxp]]; ok {
					return bi
				}
				return -1
			})
			lightPart := mpc.Local(g, rels[e], relation.SelectInStep(rs, x, heavySet, false))
			if assign == nil || lightPart.Len() == 0 {
				continue
			}
			relP := g.HashPartition(lightPart, []int{x})
			asgP := g.HashPartition(assign, []int{x})
			// relP and asgP are partitioned on x by the same hash, so the
			// assignment row of a light value sits on the server of its
			// tuples, and one table over all of asgP reads what each
			// server's own share would.
			var groupOf hashtab.Table
			gids := groupIndex(&groupOf, relation.GetArena(asgP.Len()), asgP.Collect(),
				[]int{asgP.Schema.Pos(x)}, asgP.Schema.Pos(ex.grpAttr))
			rxp := []int{relP.Schema.Pos(x)}
			lParts := g.DistributeSpread(relP, sizes, c.sxSet.Contains(e), func(t relation.Tuple) int {
				if k := groupOf.Find(t, rxp); k >= 0 {
					if bi, ok := groupBranch[gids[k]]; ok {
						return bi
					}
				}
				return -1
			})
			groupOf.Release()
			relation.PutArena(gids)
			copy(parts[e][nHeavy:], lParts[nHeavy:])
		}
	})

	// Recurse into all branches in parallel.
	branches := make([]mpc.Branch, len(plans))
	for bi, pl := range plans {
		branches[bi] = mpc.Branch{
			Servers: pl.servers,
			Run: func(sub *mpc.Group) (n int64, err error) {
				if pl.isHeavy {
					sub.Span("heavy branch", func() {
						n, err = ex.heavyBranch(sub, st, parts, ctx, pl.heavyVal, bi, depth)
					})
				} else {
					sub.Span("light branch", func() {
						n, err = ex.lightBranch(sub, st, parts, ctx, bi, depth)
					})
				}
				return n, err
			},
		}
	}
	counts, err := g.Parallel(branches)
	if err != nil {
		return 0, err
	}
	return relation.SumSat(counts), nil
}

// heavyBranch computes the residual subquery Q_x on the σ_{x=a}
// instance: x is projected away everywhere (it is constant), the context
// is filtered consistently, and the whole algorithm recurses.
func (ex *executor) heavyBranch(sub *mpc.Group, st *step, parts [][]mpc.DistRelation,
	ctx []relation.View, a relation.Value, bi, depth int) (int64, error) {

	c := st.caseI
	chargeCtx(sub, ctx)
	nrels := make([]*mpc.DistRelation, len(parts))
	for _, e := range st.live {
		part := &parts[e][bi]
		if st.vars[e].Contains(c.x) {
			ns := c.proj[e]
			part = mpc.Local(sub, part, relation.ProjectStep(part.Schema, ns))
		}
		nrels[e] = part
	}
	nctx := make([]relation.View, len(ctx))
	for i, r := range ctx {
		nctx[i] = r
		if rest := c.ctxRest[i]; rest != nil {
			nctx[i] = r.SelectEqProject(c.x, a, rest...).View
		}
	}
	child, err := c.heavy.step(ex)
	if err != nil {
		return 0, err
	}
	return ex.compute(sub, child, nrels, nctx, depth+1)
}

// lightBranch computes the residual subquery Q_y on the group's light
// instance: the S^x relations' σ tuples were replicated to every server
// of the branch and join the context; the rest recurses.
func (ex *executor) lightBranch(sub *mpc.Group, st *step, parts [][]mpc.DistRelation,
	ctx []relation.View, bi, depth int) (int64, error) {

	c := st.caseI
	chargeCtx(sub, ctx)
	nctx := make([]relation.View, 0, len(ctx)+len(c.sx))
	nctx = append(nctx, ctx...)
	for _, e := range c.sx {
		nctx = append(nctx, parts[e][bi].Frag(0))
	}
	nrels := make([]*mpc.DistRelation, len(parts))
	for _, e := range c.lightLive {
		nrels[e] = &parts[e][bi]
	}
	child, err := c.light.step(ex)
	if err != nil {
		return 0, err
	}
	return ex.compute(sub, child, nrels, nctx, depth+1)
}
