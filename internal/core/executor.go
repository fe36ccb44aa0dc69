package core

import (
	"fmt"
	"sync"

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
	// Trace records one line per structural decision (reductions,
	// Case I choices, heavy/light branch counts, Case II grids) in
	// Result.Trace — the observability hook for debugging runs.
	Trace bool
}

// Result reports one execution.
type Result struct {
	// Emitted is the number of join results emitted (each exactly once).
	Emitted int64
	// L is the threshold used.
	L int
	// Trace holds the decision log when Options.Trace was set.
	Trace []string
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

// Run executes the generic acyclic join algorithm on the group.
func Run(g *mpc.Group, in *relation.Instance, opts Options) (*Result, error) {
	q := in.Query
	if !plan.Acyclic(q) {
		return nil, fmt.Errorf("core: %s is not acyclic", q.Name())
	}
	if err := in.Validate(); err != nil {
		return nil, err
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
		trace:   opts.Trace,
	}
	// Initial state: all edges alive with their full attribute sets,
	// relations deduplicated and scattered evenly (free initial layout;
	// ScatterDedup routes the first occurrences into the placement).
	alive := q.AllEdges()
	vars := make(map[int]hypergraph.VarSet)
	rels := make(map[int]*mpc.DistRelation)
	for e := 0; e < q.NumEdges(); e++ {
		vars[e] = q.EdgeVars(e).Clone()
		rels[e] = g.ScatterDedup(in.Rel(e))
	}
	var emitted int64
	var err error
	g.Span("core "+opts.Strategy.String(), func() {
		emitted, err = ex.compute(g, alive, vars, rels, nil, 0)
	})
	if err != nil {
		return nil, err
	}
	return &Result{Emitted: emitted, L: L, Trace: ex.log}, nil
}

// executor carries the per-run constants.
type executor struct {
	q       *hypergraph.Query
	strat   Strategy
	L       int
	cntAttr int
	grpAttr int
	trace   bool
	logMu   sync.Mutex
	log     []string
}

// tracef appends a decision-log line when tracing is on. Branches of a
// Parallel block may log concurrently under the parallel engine, so
// appends are serialized; line order across concurrent branches is not
// part of the determinism contract (TraceRun runs sequentially).
func (ex *executor) tracef(depth int, format string, args ...interface{}) {
	if !ex.trace {
		return
	}
	prefix := ""
	for i := 0; i < depth; i++ {
		prefix += "  "
	}
	ex.logMu.Lock()
	ex.log = append(ex.log, prefix+fmt.Sprintf(format, args...))
	ex.logMu.Unlock()
}

func cloneVars(vars map[int]hypergraph.VarSet) map[int]hypergraph.VarSet {
	out := make(map[int]hypergraph.VarSet, len(vars))
	for k, v := range vars {
		out[k] = v.Clone()
	}
	return out
}

// compute runs the generic algorithm on one subproblem and returns the
// number of join results emitted.
func (ex *executor) compute(g *mpc.Group, alive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet,
	rels map[int]*mpc.DistRelation, ctx []*relation.Relation, depth int) (int64, error) {

	if depth > maxDepth {
		return 0, fmt.Errorf("core: recursion depth %d exceeded", depth)
	}

	// Drop 0-ary relations: an empty one annihilates the join, a
	// nonempty one is a satisfied presence marker.
	for _, e := range alive.Edges() {
		if vars[e].IsEmpty() {
			if rels[e].Len() == 0 {
				return 0, nil
			}
			alive.Remove(e)
		} else if rels[e].Len() == 0 {
			return 0, nil
		}
	}
	if alive.IsEmpty() {
		// Everything peeled; the remaining result is the join of the
		// replicated context, emitted once.
		return relation.JoinSizeOf(ctx), nil
	}

	// Reduce: absorb relations contained in another (semi-join, then
	// drop), Case I's first step.
	g.Span("semi-join reduce", func() {
		reduced := true
		for reduced {
			reduced = false
			es := alive.Edges()
			for _, i := range es {
				if !alive.Contains(i) {
					continue
				}
				for _, j := range es {
					if i == j || !alive.Contains(j) || !vars[i].SubsetOf(vars[j]) {
						continue
					}
					if vars[i].Equal(vars[j]) && i < j {
						continue // drop the higher index of equal pairs
					}
					rels[j] = primitives.SemiJoin(g, rels[j], rels[i])
					alive.Remove(i)
					reduced = true
					break
				}
			}
		}
	})
	for _, e := range alive.Edges() {
		if rels[e].Len() == 0 {
			return 0, nil
		}
	}

	// Base case: a single relation left — every server emits its
	// fragment joined with the context.
	if alive.Len() == 1 {
		// The context is the same at every server: its side of the count
		// is aggregated once, and each fragment only probes it.
		e := alive.Edges()[0]
		frags := rels[e].Frags
		schemas := make([]relation.Schema, 1+len(ctx))
		schemas[0] = rels[e].Schema
		for i, c := range ctx {
			schemas[1+i] = c.Schema()
		}
		bound := relation.NewCounter(schemas).Bind(append([]*relation.Relation{nil}, ctx...), 0)
		partial := make([]int64, len(frags))
		g.Fork(len(frags), func(i int) {
			partial[i] = bound.Count(frags[i])
		})
		bound.Release()
		var total int64
		for _, c := range partial {
			total = relation.AddSat(total, c)
		}
		return total, nil
	}

	// Build the current subquery and its join tree.
	qc, origOf := ex.subquery(alive, vars)
	tree, ok := plan.GYO(qc)
	if !ok {
		return 0, fmt.Errorf("core: subquery became cyclic (bug): %s", qc)
	}

	comps := qc.ConnectedComponents()
	if len(comps) > 1 {
		ex.tracef(depth, "case II: %d components of %s", len(comps), qc)
		return ex.caseII(g, alive, vars, rels, ctx, comps, origOf, depth)
	}
	return ex.caseI(g, alive, vars, rels, ctx, tree, origOf, depth)
}

// subquery materializes the current (alive, vars) pair as a Query whose
// edge order is ascending original edge index; origOf maps subquery edge
// index back to the original.
func (ex *executor) subquery(alive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet) (*hypergraph.Query, []int) {
	qc := hypergraph.NewQuery(ex.q.Name() + "|sub")
	var origOf []int
	for _, e := range alive.Edges() {
		qc.AddEdgeVars(ex.q.Edge(e).Name, vars[e])
		origOf = append(origOf, e)
	}
	return qc, origOf
}

// caseII handles a disconnected subquery: the Cartesian product over
// components on a hypercube of server groups (Section 3.1, Case II).
func (ex *executor) caseII(g *mpc.Group, alive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet,
	rels map[int]*mpc.DistRelation, ctx []*relation.Relation,
	comps []hypergraph.EdgeSet, origOf []int, depth int) (int64, error) {

	// Component edge sets in original ids.
	compEdges := make([][]int, len(comps))
	for i, c := range comps {
		for _, sub := range c.Edges() {
			compEdges[i] = append(compEdges[i], origOf[sub])
		}
	}

	// Allocation per component.
	sizes := make([]int, len(comps))
	grid := 1
	for i, edges := range compEdges {
		sizes[i] = ex.allocate(g, edgesSet(edges), vars, rels)
		grid *= sizes[i]
	}
	g.DeclareServers(grid)

	// Move each component's relations to its branch and recurse in
	// parallel. The simulator executes one hypercube row per component;
	// DeclareServers above accounts the full grid.
	counts := make([]int64, len(comps))
	errs := make([]error, len(comps))
	branches := make([]mpc.Branch, 0, len(comps))
	g.Span("case II split", func() {
		for i, edges := range compEdges {
			i, edges := i, edges
			branchRels := make(map[int]*mpc.DistRelation, len(edges))
			for _, e := range edges {
				parts := g.DistributeSpread(rels[e], []int{sizes[i]}, spreadAll(0))
				branchRels[e] = parts[0]
			}
			branches = append(branches, mpc.Branch{
				Servers: sizes[i],
				Run: func(sub *mpc.Group) {
					sub.Span("component branch", func() {
						chargeCtx(sub, ctx)
						counts[i], errs[i] = ex.compute(sub, edgesSet(edges), cloneVars(vars), branchRels, ctx, depth+1)
					})
				},
			})
		}
	})
	g.Parallel(branches)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	if len(ctx) == 0 {
		total := int64(1)
		for _, c := range counts {
			total = satMul(total, c)
		}
		return total, nil
	}
	// A context relation can span several components, so the product of
	// per-component counts over-counts; the emitted total is the joint
	// count, which the final hypercube servers verify locally. The
	// movement above is what costs; the count itself is exact.
	var all []*relation.Relation
	for _, e := range alive.Edges() {
		all = append(all, rels[e].Collect())
	}
	all = append(all, ctx...)
	return relation.JoinSizeOf(all), nil
}

// spreadAll sends every tuple to one branch; the engine rotates tuples
// over the branch's servers (DistributeSpread owns the round-robin
// state, keeping the pick closure pure for the parallel engine).
func spreadAll(branch int) func(*relation.Relation, relation.Tuple) []mpc.BranchSend {
	sends := []mpc.BranchSend{{Branch: branch}}
	return func(*relation.Relation, relation.Tuple) []mpc.BranchSend { return sends }
}

// chargeCtx charges the delivery of the replicated context to a freshly
// allocated subgroup (one round, ctx size per server).
func chargeCtx(sub *mpc.Group, ctx []*relation.Relation) {
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
