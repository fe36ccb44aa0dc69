package core

import (
	"fmt"
	"strings"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/plan"
	"coverpack/internal/primitives"
	"coverpack/internal/relation"
)

// Strategy selects which run of the generic algorithm to execute.
type Strategy int

const (
	// Conservative is the Theorem 1 run: S^x is always the single leaf
	// {e1}, and server allocation follows the sub-join cost formula
	// Ψ(T, R, S, L) = |⊗(T,R,S)| / L^{|S|}.
	Conservative Strategy = iota
	// PathOptimal is the Section 4 run: S^x is the maximal path of
	// relations sharing the first attribute, starting at a leaf of the
	// integral optimal edge cover; allocation follows the product form
	// Ψ(T, R, S, L) = Π_{e∈S} |R(e)| / L^{|S|} over the cover.
	PathOptimal
)

func (s Strategy) String() string {
	switch s {
	case Conservative:
		return "conservative"
	case PathOptimal:
		return "path-optimal"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configures a run.
type Options struct {
	Strategy Strategy
	// L is the load threshold; 0 selects it automatically (Theorem 2
	// for Conservative, Section 4.3 for PathOptimal).
	L int
}

// Result reports one execution.
type Result struct {
	// Emitted is the number of join results emitted (each exactly once).
	Emitted int64
	// L is the threshold used.
	L int
}

// maxDepth bounds the recursion; the paper's recursion depth is O(|E| +
// |V|) for constant-size queries, so hitting this indicates a bug.
const maxDepth = 64

// synthetic attribute ids used by statistics relations; offset past the
// query's own ids.
const (
	cntOff = iota + 1
	grpOff
)

// Run executes the generic acyclic join algorithm on the group, over a
// valid, set-valued instance (coverpack.ExecuteOpts validates its input
// and takes it through relation.Instance.AsSets).
func Run(g *mpc.Group, in *relation.Instance, opts Options) (*Result, error) {
	res, _, err := run(g, in, opts)
	return res, err
}

// run is Run that also returns the root of the recursion program the run
// compiled.
func run(g *mpc.Group, in *relation.Instance, opts Options) (*Result, *step, error) {
	if opts.Strategy != Conservative && opts.Strategy != PathOptimal {
		return nil, nil, fmt.Errorf("core: unknown strategy %v", opts.Strategy)
	}
	q := in.Query
	if !plan.Acyclic(q) {
		return nil, nil, fmt.Errorf("core: %s is not acyclic", q.Name())
	}
	L := opts.L
	if L <= 0 {
		L = ChooseL(in, g.Size(), opts.Strategy)
	}
	if L < 1 {
		L = 1
	}
	ex := &executor{
		q:       q,
		strat:   opts.Strategy,
		L:       L,
		cntAttr: q.NumAttrs() + cntOff,
		grpAttr: q.NumAttrs() + grpOff,
	}
	// Initial state: all edges alive with their full attribute sets,
	// relations scattered evenly (free initial layout).
	vars := make([]hypergraph.VarSet, q.NumEdges())
	rels := make([]*mpc.DistRelation, q.NumEdges())
	for e := range rels {
		vars[e] = q.EdgeVars(e)
		rels[e] = g.Scatter(in.Rel(e))
	}
	root, err := ex.compile(q.AllEdges().Edges(), vars, nil)
	if err != nil {
		return nil, nil, err
	}
	var emitted int64
	g.Span("core "+opts.Strategy.String(), func() {
		emitted, err = ex.compute(g, root, rels, nil, 0)
	})
	if err != nil {
		return nil, nil, err
	}
	return &Result{Emitted: emitted, L: L}, root, nil
}

// executor carries the per-run constants.
type executor struct {
	q       *hypergraph.Query
	strat   Strategy
	L       int
	cntAttr int
	grpAttr int
}

// note leaves one line of the decision log (a reduction, a Case I
// choice, a branch count, a Case II split), indented two spaces per
// recursion level, as a note on g's trace. Callers check g.Recording()
// first, so that a run without a recorder never builds the arguments.
func note(g *mpc.Group, depth int, format string, args ...interface{}) {
	g.Note(strings.Repeat("  ", depth) + fmt.Sprintf(format, args...))
}

// compute runs step st on one subproblem and returns the number of join
// results emitted. rels is indexed by original edge id and owned by the
// call: the reduction overwrites it.
func (ex *executor) compute(g *mpc.Group, st *step, rels []*mpc.DistRelation,
	ctx []relation.View, depth int) (int64, error) {

	if depth > maxDepth {
		return 0, fmt.Errorf("core: recursion depth %d exceeded", depth)
	}

	// An empty relation annihilates the join; a nonempty 0-ary one is a
	// satisfied presence marker, which the step drops.
	for _, e := range st.alive {
		if rels[e].Len() == 0 {
			return 0, nil
		}
	}
	if len(st.live) == 0 {
		// Everything peeled; the remaining result is the join of the
		// replicated context, emitted once.
		return st.count.Count(ctx), nil
	}

	// Reduce: absorb relations contained in another (semi-join, then
	// drop), Case I's first step.
	g.Span("semi-join reduce", func() {
		for _, a := range st.absorb {
			rels[a.into] = primitives.SemiJoin(g, rels[a.into], rels[a.from])
		}
	})
	for _, e := range st.live {
		if rels[e].Len() == 0 {
			return 0, nil
		}
	}

	switch {
	case st.caseII != nil:
		if g.Recording() {
			note(g, depth, "case II: %d components of %s", len(st.caseII.comps), st.qc)
		}
		return ex.caseII(g, st, rels, ctx, depth)
	case st.caseI != nil:
		return ex.caseI(g, st, rels, ctx, depth)
	}

	// Base case: a single relation left — every server emits its
	// fragment joined with the context. The context is the same at every
	// server: its side of the count is aggregated once, and each fragment
	// only probes it.
	d := rels[st.live[0]]
	bound := st.count.Bind(append([]relation.View{{}}, ctx...), 0)
	total := g.Emit(d.Servers(), func(i int) int64 { return bound.Count(d.Frag(i)) })
	bound.Release()
	return total, nil
}

// caseII handles a disconnected subquery: the Cartesian product over
// components on a hypercube of server groups (Section 3.1, Case II).
func (ex *executor) caseII(g *mpc.Group, st *step, rels []*mpc.DistRelation,
	ctx []relation.View, depth int) (int64, error) {

	comps := st.caseII.comps
	// Allocation per component.
	sizes := make([]int, len(comps))
	grid := 1
	for i := range comps {
		sizes[i] = ex.allocate(g, &comps[i], rels)
		grid *= sizes[i]
	}
	g.DeclareServers(grid)

	// Move each component's relations to its branch and recurse in
	// parallel. The simulator executes one hypercube row per component;
	// DeclareServers above accounts the full grid.
	branches := make([]mpc.Branch, 0, len(comps))
	g.Span("case II split", func() {
		for i := range comps {
			comp := &comps[i]
			branchRels := make([]*mpc.DistRelation, len(rels))
			for _, e := range comp.edges {
				branchRels[e] = &g.Spread(rels[e], sizes[i:i+1])[0]
			}
			branches = append(branches, mpc.Branch{
				Servers: sizes[i],
				Run: func(sub *mpc.Group) (n int64, err error) {
					sub.Span("component branch", func() {
						chargeCtx(sub, ctx)
						var child *step
						if child, err = comp.child.step(ex); err == nil {
							n, err = ex.compute(sub, child, branchRels, ctx, depth+1)
						}
					})
					return n, err
				},
			})
		}
	})
	counts, err := g.Parallel(branches)
	if err != nil {
		return 0, err
	}

	if len(ctx) == 0 {
		total := int64(1)
		for _, c := range counts {
			total = relation.MulSat(total, c)
		}
		return total, nil
	}
	// A context relation can span several components, so the product of
	// per-component counts over-counts; the emitted total is the joint
	// count, which the final hypercube servers verify locally. The
	// movement above is what costs; the count itself is exact, over
	// views of the branches' inputs.
	all := make([]relation.View, 0, len(st.live)+len(ctx))
	for _, e := range st.live {
		all = append(all, rels[e].Collect())
	}
	return st.caseII.joint.Count(append(all, ctx...)), nil
}

// chargeCtx charges the delivery of the replicated context to a freshly
// allocated subgroup (one round, ctx size per server).
func chargeCtx(sub *mpc.Group, ctx []relation.View) {
	if len(ctx) == 0 {
		return
	}
	total := 0
	for _, c := range ctx {
		total += c.Len()
	}
	units := make([]int, sub.Size())
	for i := range units {
		units[i] = total
	}
	sub.ChargeControl(units)
}

func edgesSet(edges []int) hypergraph.EdgeSet {
	var s hypergraph.EdgeSet
	for _, e := range edges {
		s.Add(e)
	}
	return s
}
