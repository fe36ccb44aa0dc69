package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"coverpack/internal/hypergraph"
	"coverpack/internal/plan"
	"coverpack/internal/relation"
)

// The recursion program. Which case a subproblem takes, the attribute x
// and path S^x it peels, the covers and join trees that size its
// branches and the schemas its emit step counts over all follow from the
// query's structure along the recursion path; the data only decides
// which heavy values and light groups exist. A step holds the structural
// part of one recursion state. It is compiled the first time the run
// reaches the state, is read-only afterwards, and executor.compute
// interprets it.
//
// Children hang off their parent by link and compile lazily, each under
// its own sync.Once, because concurrent heavy branches reach the same
// child. The program is a tree keyed by the path taken, not a DAG keyed
// by state: the context schemas a step counts over depend on the path.
// Compile work is therefore bounded by the structural paths a run
// reaches, never by the number of heavy values or light groups.

// step is one compiled recursion state.
type step struct {
	// alive and vars are the compile inputs: the edges alive on entry,
	// ascending, and every edge's attribute set by original edge id.
	// Every alive edge is checked nonempty on entry, and the 0-ary ones
	// are then dropped.
	alive []int
	vars  []hypergraph.VarSet
	// absorb is the semi-join reduction, in order; live holds the edges
	// left after it, ascending. An empty live list means every alive
	// edge was 0-ary.
	absorb []absorption
	live   []int
	// count is the emit step when at most one edge is live: the join of
	// the context alone, or of [the live edge, context...].
	count *relation.Counter
	// qc is the live subquery (edge i is live[i]) and tree its join tree;
	// set when two or more edges are live, as is exactly one of the
	// cases.
	qc     *hypergraph.Query
	tree   *hypergraph.JoinTree
	caseI  *caseIStep
	caseII *caseIIStep
}

// absorption is one reduce step: rels[into] ⋉= rels[from], after which
// from is dropped.
type absorption struct{ into, from int }

// link is a child step with the inputs it compiles from.
type link struct {
	alive []int
	vars  []hypergraph.VarSet
	ctx   []relation.Schema
	once  sync.Once
	st    *step
	err   error
}

// step returns the child, compiling it on first use.
func (l *link) step(ex *executor) (*step, error) {
	l.once.Do(func() { l.st, l.err = ex.compile(l.alive, l.vars, l.ctx) })
	return l.st, l.err
}

// caseIIStep is a disconnected subquery: one component per branch of the
// Case II hypercube.
type caseIIStep struct {
	comps []component
	// joint counts [live edges..., context...]; nil without a context.
	joint *relation.Counter
}

// component is one Case II branch: its edges (original ids, ascending),
// what allocate sizes it from, and its child step.
type component struct {
	edges []int
	// whole marks a component whose tree or cover could not be built; its
	// branch gets the whole group.
	whole bool
	// coverSubsets (PathOptimal) are the nonempty subsets of the
	// component's integral cover, in original ids.
	coverSubsets [][]int
	// qc, tree and subsets (Conservative) are the component's query, its
	// join tree and the nonempty subsets of its edges in qc's ids.
	qc      *hypergraph.Query
	tree    *hypergraph.JoinTree
	subsets []hypergraph.EdgeSet
	child   link
}

// caseIStep is a connected subquery peeled on x along S^x.
type caseIStep struct {
	x        int
	sx       []int
	sxSet    hypergraph.EdgeSet
	xHolders []int
	// span names the peel's trace span.
	span string
	// proj is, by edge id, an x-holder's schema with x projected away
	// (the heavy branch's input). ctxRest is, per context relation
	// holding x, the attributes the heavy branch keeps after selecting
	// x = a (non-nil, possibly empty); nil for the others.
	proj    []relation.Schema
	ctxRest [][]int
	// lightLive is live minus S^x, the light branch's edges.
	lightLive []int
	// psiHeavy and psiLight (Conservative) size heavy and light
	// branches; heavyCover and lightCover (PathOptimal) are the nonempty
	// subsets of the residual covers, in original ids.
	psiHeavy, psiLight     *psiPlan
	heavyCover, lightCover [][]int
	heavy, light           link
}

// psiPlan is the conservative allocation's structure over one join tree
// (T for heavy branches, T' for light ones): every nonempty subset S of
// the candidate edges with its components T[S], and the distinct
// components, each rooted where JoinCountBy can group by x.
type psiPlan struct {
	subsets []psiSubset
	comps   []psiComp
}

type psiSubset struct {
	size  int
	comps []int // indexes into psiPlan.comps, in T[S] order
}

type psiComp struct {
	edges []int // original ids, ascending
	root  int
	hasX  bool
	// children is the component re-rooted at root, by original edge id.
	children [][]int
}

// compile builds the step for (alive, vars, ctx schemas).
func (ex *executor) compile(alive []int, vars []hypergraph.VarSet, ctx []relation.Schema) (*step, error) {
	st := &step{alive: alive, vars: vars}
	var live hypergraph.EdgeSet
	for _, e := range alive {
		if !vars[e].IsEmpty() {
			live.Add(e)
		}
	}
	if live.IsEmpty() {
		st.count = relation.NewCounter(ctx)
		return st, nil
	}

	// Reduce: absorb relations contained in another, Case I's first step.
	for reduced := true; reduced; {
		reduced = false
		es := live.Edges()
		for _, i := range es {
			if !live.Contains(i) {
				continue
			}
			for _, j := range es {
				if i == j || !live.Contains(j) || !vars[i].SubsetOf(vars[j]) {
					continue
				}
				if vars[i].Equal(vars[j]) && i < j {
					continue // drop the higher index of equal pairs
				}
				st.absorb = append(st.absorb, absorption{into: j, from: i})
				live.Remove(i)
				reduced = true
				break
			}
		}
	}
	st.live = live.Edges()
	if len(st.live) == 1 {
		st.count = relation.NewCounter(append([]relation.Schema{schemaOf(vars[st.live[0]])}, ctx...))
		return st, nil
	}

	qc := ex.subquery(st.live, vars)
	tree, ok := plan.GYO(qc)
	if !ok {
		return nil, fmt.Errorf("core: subquery became cyclic (bug): %s", qc)
	}
	st.qc, st.tree = qc, tree
	if comps := qc.ConnectedComponents(); len(comps) > 1 {
		st.caseII = ex.compileCaseII(st, comps, ctx)
	} else {
		st.caseI = ex.compileCaseI(st, ctx)
	}
	return st, nil
}

func (ex *executor) compileCaseII(st *step, comps []hypergraph.EdgeSet, ctx []relation.Schema) *caseIIStep {
	c := &caseIIStep{comps: make([]component, len(comps))}
	for i, comp := range comps {
		cp := &c.comps[i]
		for _, sub := range comp.Edges() {
			cp.edges = append(cp.edges, st.live[sub])
		}
		cp.child.alive, cp.child.vars, cp.child.ctx = cp.edges, st.vars, ctx

		qc := ex.subquery(cp.edges, st.vars)
		tree, ok := plan.GYO(qc)
		if !ok {
			cp.whole = true
			continue
		}
		if ex.strat == PathOptimal {
			cover, err := coverFor(qc)
			if err != nil {
				cp.whole = true
				continue
			}
			var orig hypergraph.EdgeSet
			for _, sub := range cover.Edges() {
				orig.Add(cp.edges[sub])
			}
			cp.coverSubsets = nonemptySubsets(orig.Edges())
			continue
		}
		cp.qc, cp.tree = qc, tree
		for _, s := range hypergraph.SubsetsOf(qc.AllEdges().Edges()) {
			if !s.IsEmpty() {
				cp.subsets = append(cp.subsets, s)
			}
		}
	}
	if len(ctx) > 0 {
		schemas := make([]relation.Schema, 0, len(st.live)+len(ctx))
		for _, e := range st.live {
			schemas = append(schemas, schemaOf(st.vars[e]))
		}
		c.joint = relation.NewCounter(append(schemas, ctx...))
	}
	return c
}

func (ex *executor) compileCaseI(st *step, ctx []relation.Schema) *caseIStep {
	ch := ex.choose(st.tree, st.live, st.vars)
	x := ch.x
	c := &caseIStep{
		x: x, sx: ch.sx, sxSet: edgesSet(ch.sx),
		span: "twig " + ex.q.AttrName(x),
		proj: make([]relation.Schema, ex.q.NumEdges()),
	}

	// The heavy branch: x projected away from every x-holder and fixed in
	// the context.
	heavyVars := append([]hypergraph.VarSet(nil), st.vars...)
	for _, e := range st.live {
		if st.vars[e].Contains(x) {
			c.xHolders = append(c.xHolders, e)
			nv := st.vars[e].Clone()
			nv.Remove(x)
			heavyVars[e] = nv
			c.proj[e] = schemaOf(nv)
		}
	}
	heavyCtx := make([]relation.Schema, len(ctx))
	c.ctxRest = make([][]int, len(ctx))
	for i, s := range ctx {
		heavyCtx[i] = s
		if s.Has(x) {
			rest := hypergraph.NewVarSet(s.Attrs()...)
			rest.Remove(x)
			c.ctxRest[i] = rest.Attrs()
			heavyCtx[i] = schemaOf(rest)
		}
	}
	c.heavy.alive, c.heavy.vars, c.heavy.ctx = st.live, heavyVars, heavyCtx

	// The light branch: S^x joins the context, the rest recurses.
	c.lightLive = edgesSet(st.live).Subtract(c.sxSet).Edges()
	lightCtx := append([]relation.Schema(nil), ctx...)
	for _, e := range ch.sx {
		lightCtx = append(lightCtx, schemaOf(st.vars[e]))
	}
	c.light.alive, c.light.vars, c.light.ctx = c.lightLive, st.vars, lightCtx

	switch ex.strat {
	case Conservative:
		subOf := make([]int, ex.q.NumEdges())
		for i, e := range st.live {
			subOf[e] = i
		}
		var sxSub hypergraph.EdgeSet
		for _, e := range ch.sx {
			sxSub.Add(subOf[e])
		}
		c.psiHeavy = newPsiPlan(st.tree, st.live, subOf, st.live, st.vars, x)
		c.psiLight = newPsiPlan(st.tree.RemoveEdges(sxSub), st.live, subOf, c.lightLive, st.vars, x)
	case PathOptimal:
		c.heavyCover = nonemptySubsets(ex.residualCover(st.live, st.vars, hypergraph.NewVarSet(x)).Edges())
		c.lightCover = nonemptySubsets(ex.residualCover(c.lightLive, st.vars, hypergraph.VarSet{}).Edges())
	}
	return c
}

// newPsiPlan compiles the components of every nonempty subset of
// candidates on tree, whose edge i is origOf[i] (subOf inverts it).
func newPsiPlan(tree *hypergraph.JoinTree, origOf, subOf, candidates []int, vars []hypergraph.VarSet, x int) *psiPlan {
	p := &psiPlan{}
	for _, s := range hypergraph.SubsetsOf(candidates) {
		if s.IsEmpty() {
			continue
		}
		var sub hypergraph.EdgeSet
		for _, e := range s.Edges() {
			sub.Add(subOf[e])
		}
		ps := psiSubset{size: s.Len()}
		for _, comp := range tree.ConnectedComponentsOn(sub) {
			var orig []int
			for _, i := range comp.Edges() {
				orig = append(orig, origOf[i])
			}
			sort.Ints(orig)
			ps.comps = append(ps.comps, p.compIndex(orig, tree, origOf, subOf, vars, x))
		}
		p.subsets = append(p.subsets, ps)
	}
	return p
}

// compIndex returns the index of the component with the given edges,
// adding it on first sight.
func (p *psiPlan) compIndex(edges []int, tree *hypergraph.JoinTree, origOf, subOf []int, vars []hypergraph.VarSet, x int) int {
	for i, c := range p.comps {
		if slices.Equal(c.edges, edges) {
			return i
		}
	}
	// Root at an x-holder when one exists, so JoinCountBy can group by x
	// at the root.
	root := -1
	for _, e := range edges {
		if vars[e].Contains(x) {
			root = e
			break
		}
	}
	hasX := root >= 0
	if !hasX {
		root = edges[0]
	}
	p.comps = append(p.comps, psiComp{
		edges: edges, root: root, hasX: hasX,
		children: rerootedChildren(tree, origOf, subOf, edges, root, len(vars)),
	})
	return len(p.comps) - 1
}

// rerootedChildren builds children arrays (original-id space) for the
// component re-rooted at root, using the tree's adjacency restricted to
// the component.
func rerootedChildren(tree *hypergraph.JoinTree, origOf, subOf, comp []int, root, numEdges int) [][]int {
	inComp := make(map[int]bool, len(comp))
	for _, e := range comp {
		inComp[e] = true
	}
	adj := make(map[int][]int)
	for _, e := range comp {
		p := tree.Parent[subOf[e]]
		if p >= 0 {
			po := origOf[p]
			if inComp[po] {
				adj[e] = append(adj[e], po)
				adj[po] = append(adj[po], e)
			}
		}
	}
	children := make([][]int, numEdges)
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

// subquery materializes (edges, vars) as a Query whose edge i is
// edges[i].
func (ex *executor) subquery(edges []int, vars []hypergraph.VarSet) *hypergraph.Query {
	qc := hypergraph.NewQuery(ex.q.Name() + "|sub")
	for _, e := range edges {
		qc.AddEdgeVars(ex.q.Edge(e).Name, vars[e])
	}
	return qc
}

// residualCover computes the integral cover of the (alive, vars minus
// drop) subquery in original edge ids.
func (ex *executor) residualCover(alive []int, vars []hypergraph.VarSet, drop hypergraph.VarSet) hypergraph.EdgeSet {
	qc := hypergraph.NewQuery("rescover")
	var origOf []int
	for _, e := range alive {
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

// nonemptySubsets lists the nonempty subsets of edges in SubsetsOf
// order, each ascending.
func nonemptySubsets(edges []int) [][]int {
	var out [][]int
	for _, s := range hypergraph.SubsetsOf(edges) {
		if !s.IsEmpty() {
			out = append(out, s.Edges())
		}
	}
	return out
}

func schemaOf(vs hypergraph.VarSet) relation.Schema {
	return relation.NewSchema(vs.Attrs()...)
}
