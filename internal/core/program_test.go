package core

import (
	"fmt"
	"sort"
	"testing"

	"coverpack/internal/hypergraph"
	"coverpack/internal/mpc"
	"coverpack/internal/plan"
	"coverpack/internal/relation"
	"coverpack/internal/workload"
)

// refState is the structure of one recursion node derived the way the
// executor did before it compiled a program: at every node, from (alive,
// vars), by subquery → plan.GYO → components → choose → residualCover.
type refState struct {
	live   []int
	absorb []absorption
	parent []int // the live subquery's join tree; nil below two live edges
	// Case II.
	comps      [][]int
	compCovers []hypergraph.EdgeSet // PathOptimal
	// Case I.
	caseI                  bool
	x                      int
	sx, xHolders           []int
	lightAlive             []int
	heavyVars              map[int]hypergraph.VarSet
	heavyCover, lightCover hypergraph.EdgeSet // PathOptimal
	heavyComps, lightComps [][][]int          // Conservative: T[S] per nonempty S
}

func refDerive(ex *executor, aliveIn []int, varsIn []hypergraph.VarSet) (refState, error) {
	var alive hypergraph.EdgeSet
	vars := make(map[int]hypergraph.VarSet)
	for _, e := range aliveIn {
		alive.Add(e)
		vars[e] = varsIn[e].Clone()
	}
	for _, e := range alive.Edges() {
		if vars[e].IsEmpty() {
			alive.Remove(e)
		}
	}
	var r refState
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
					continue
				}
				r.absorb = append(r.absorb, absorption{into: j, from: i})
				alive.Remove(i)
				reduced = true
				break
			}
		}
	}
	r.live = alive.Edges()
	if alive.Len() <= 1 {
		return r, nil
	}

	qc := hypergraph.NewQuery(ex.q.Name() + "|sub")
	var origOf []int
	for _, e := range alive.Edges() {
		qc.AddEdgeVars(ex.q.Edge(e).Name, vars[e])
		origOf = append(origOf, e)
	}
	tree, ok := plan.GYO(qc)
	if !ok {
		return r, fmt.Errorf("reference subquery cyclic: %s", qc)
	}
	r.parent = tree.Parent

	if comps := qc.ConnectedComponents(); len(comps) > 1 {
		for _, c := range comps {
			var edges []int
			for _, sub := range c.Edges() {
				edges = append(edges, origOf[sub])
			}
			r.comps = append(r.comps, edges)
			if ex.strat == PathOptimal {
				cq := hypergraph.NewQuery("alloc")
				for _, e := range edges {
					cq.AddEdgeVars(ex.q.Edge(e).Name, vars[e])
				}
				cover, err := IntegralCover(cq)
				if err != nil {
					return r, err
				}
				var orig hypergraph.EdgeSet
				for _, i := range cover.Edges() {
					orig.Add(edges[i])
				}
				r.compCovers = append(r.compCovers, orig)
			}
		}
		return r, nil
	}

	varsSlice := make([]hypergraph.VarSet, ex.q.NumEdges())
	for e, v := range vars {
		varsSlice[e] = v
	}
	ch := ex.choose(tree, origOf, varsSlice)
	r.caseI, r.x, r.sx = true, ch.x, ch.sx
	for _, e := range alive.Edges() {
		if vars[e].Contains(ch.x) {
			r.xHolders = append(r.xHolders, e)
		}
	}
	r.heavyVars = make(map[int]hypergraph.VarSet)
	for e, v := range vars {
		nv := v.Clone()
		nv.Remove(ch.x)
		r.heavyVars[e] = nv
	}
	subOf := make(map[int]int, len(origOf))
	for i, e := range origOf {
		subOf[e] = i
	}
	var sxSub hypergraph.EdgeSet
	for _, e := range ch.sx {
		sxSub.Add(subOf[e])
	}
	lightAlive := alive.Subtract(edgesSet(ch.sx))
	r.lightAlive = lightAlive.Edges()
	switch ex.strat {
	case PathOptimal:
		r.heavyCover = refResidualCover(ex, alive, vars, hypergraph.NewVarSet(ch.x))
		r.lightCover = refResidualCover(ex, lightAlive, vars, hypergraph.VarSet{})
	case Conservative:
		componentsOf := func(t *hypergraph.JoinTree, candidates []int) [][][]int {
			var out [][][]int
			for _, s := range hypergraph.SubsetsOf(candidates) {
				if s.IsEmpty() {
					continue
				}
				var sub hypergraph.EdgeSet
				for _, e := range s.Edges() {
					sub.Add(subOf[e])
				}
				var comps [][]int
				for _, comp := range t.ConnectedComponentsOn(sub) {
					var orig []int
					for _, i := range comp.Edges() {
						orig = append(orig, origOf[i])
					}
					sort.Ints(orig)
					comps = append(comps, orig)
				}
				out = append(out, comps)
			}
			return out
		}
		r.heavyComps = componentsOf(tree, alive.Edges())
		r.lightComps = componentsOf(tree.RemoveEdges(sxSub), lightAlive.Edges())
	}
	return r, nil
}

func refResidualCover(ex *executor, alive hypergraph.EdgeSet, vars map[int]hypergraph.VarSet, drop hypergraph.VarSet) hypergraph.EdgeSet {
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
	cover, err := IntegralCover(qc)
	if err != nil {
		return hypergraph.EdgeSet{}
	}
	var out hypergraph.EdgeSet
	for _, i := range cover.Edges() {
		out.Add(origOf[i])
	}
	return out
}

// walkSteps visits st and every step below it that the run compiled.
func walkSteps(st *step, visit func(*step)) {
	visit(st)
	var links []*link
	if c := st.caseI; c != nil {
		links = append(links, &c.heavy, &c.light)
	}
	if c := st.caseII; c != nil {
		for i := range c.comps {
			links = append(links, &c.comps[i].child)
		}
	}
	for _, l := range links {
		if l.st != nil {
			walkSteps(l.st, visit)
		}
	}
}

// unionOf checks that subsets are exactly the nonempty subsets of some
// edge set and returns that set.
func unionOf(t *testing.T, subsets [][]int) hypergraph.EdgeSet {
	t.Helper()
	var u hypergraph.EdgeSet
	for _, s := range subsets {
		for _, e := range s {
			u.Add(e)
		}
	}
	if want := 1<<uint(u.Len()) - 1; len(subsets) != want {
		t.Errorf("%d subsets of a %d-edge cover, want %d", len(subsets), u.Len(), want)
	}
	return u
}

func psiComps(p *psiPlan) [][][]int {
	out := make([][][]int, len(p.subsets))
	for k, s := range p.subsets {
		for _, i := range s.comps {
			out[k] = append(out[k], p.comps[i].edges)
		}
	}
	return out
}

func varsEqual(a []hypergraph.VarSet, b map[int]hypergraph.VarSet, edges []int) bool {
	for _, e := range edges {
		if !a[e].Equal(b[e]) {
			return false
		}
	}
	return true
}

func checkStep(t *testing.T, ex *executor, st *step) {
	t.Helper()
	ref, err := refDerive(ex, st.alive, st.vars)
	if err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("step alive=%v", st.alive)
	if fmt.Sprint(st.live) != fmt.Sprint(ref.live) || fmt.Sprint(st.absorb) != fmt.Sprint(ref.absorb) {
		t.Errorf("%s: live %v absorb %v, reference %v %v", where, st.live, st.absorb, ref.live, ref.absorb)
	}
	if len(st.live) <= 1 {
		if st.count == nil || st.caseI != nil || st.caseII != nil {
			t.Errorf("%s: base step without a lone counter", where)
		}
		return
	}
	if fmt.Sprint(st.tree.Parent) != fmt.Sprint(ref.parent) {
		t.Errorf("%s: tree %v, reference %v", where, st.tree.Parent, ref.parent)
	}
	if c := st.caseII; c != nil {
		if len(c.comps) != len(ref.comps) {
			t.Fatalf("%s: %d components, reference %d", where, len(c.comps), len(ref.comps))
		}
		for i := range c.comps {
			cp := &c.comps[i]
			if fmt.Sprint(cp.edges) != fmt.Sprint(ref.comps[i]) || fmt.Sprint(cp.child.alive) != fmt.Sprint(ref.comps[i]) {
				t.Errorf("%s: component %d = %v (child %v), reference %v", where, i, cp.edges, cp.child.alive, ref.comps[i])
			}
			if ex.strat == PathOptimal && !unionOf(t, cp.coverSubsets).Equal(ref.compCovers[i]) {
				t.Errorf("%s: component %d cover %v, reference %v", where, i, cp.coverSubsets, ref.compCovers[i])
			}
		}
		return
	}
	c := st.caseI
	if c == nil || !ref.caseI {
		t.Fatalf("%s: case I mismatch (reference case I = %v)", where, ref.caseI)
	}
	if c.x != ref.x || fmt.Sprint(c.sx) != fmt.Sprint(ref.sx) || fmt.Sprint(c.xHolders) != fmt.Sprint(ref.xHolders) {
		t.Errorf("%s: x=%d S^x=%v holders=%v, reference x=%d S^x=%v holders=%v",
			where, c.x, c.sx, c.xHolders, ref.x, ref.sx, ref.xHolders)
	}
	if fmt.Sprint(c.lightLive) != fmt.Sprint(ref.lightAlive) || fmt.Sprint(c.light.alive) != fmt.Sprint(ref.lightAlive) {
		t.Errorf("%s: light edges %v (child %v), reference %v", where, c.lightLive, c.light.alive, ref.lightAlive)
	}
	if fmt.Sprint(c.heavy.alive) != fmt.Sprint(st.live) || !varsEqual(c.heavy.vars, ref.heavyVars, st.live) {
		t.Errorf("%s: heavy child inputs differ from the reference", where)
	}
	switch ex.strat {
	case PathOptimal:
		if !unionOf(t, c.heavyCover).Equal(ref.heavyCover) || !unionOf(t, c.lightCover).Equal(ref.lightCover) {
			t.Errorf("%s: covers %v / %v, reference %v / %v", where, c.heavyCover, c.lightCover, ref.heavyCover, ref.lightCover)
		}
	case Conservative:
		if got := psiComps(c.psiHeavy); fmt.Sprint(got) != fmt.Sprint(ref.heavyComps) {
			t.Errorf("%s: heavy components %v, reference %v", where, got, ref.heavyComps)
		}
		if got := psiComps(c.psiLight); fmt.Sprint(got) != fmt.Sprint(ref.lightComps) {
			t.Errorf("%s: light components %v, reference %v", where, got, ref.lightComps)
		}
		for _, p := range []*psiPlan{c.psiHeavy, c.psiLight} {
			for _, cp := range p.comps {
				root := cp.edges[0]
				for _, e := range cp.edges {
					if st.vars[e].Contains(c.x) {
						root = e
						break
					}
				}
				if cp.root != root || cp.hasX != st.vars[root].Contains(c.x) {
					t.Errorf("%s: component %v rooted at %d (x: %v), want %d", where, cp.edges, cp.root, cp.hasX, root)
				}
			}
		}
	}
}

// TestProgramMatchesDirectPlanning walks every step a run compiles and
// compares it with the per-node derivation the program replaced.
func TestProgramMatchesDirectPlanning(t *testing.T) {
	var ins []*relation.Instance
	for _, ce := range hypergraph.Catalog() {
		if ce.Query.IsAcyclic() {
			ins = append(ins, workload.HeavyHub(ce.Query, 40))
		}
	}
	ins = append(ins, workload.Figure4Hard(6), workload.StarDualHard(3, 40, 7),
		workload.HeavyHub(hypergraph.PathJoin(4), 60))
	kinds := map[string]int{}
	for _, in := range ins {
		for _, strat := range []Strategy{Conservative, PathOptimal} {
			t.Run(in.Query.Name()+"/"+strat.String(), func(t *testing.T) {
				c := mpc.NewCluster(16)
				defer c.Release()
				res, root, err := run(c.Root(), in, Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				if res.Emitted != in.JoinSize() {
					t.Fatalf("emitted %d, want %d", res.Emitted, in.JoinSize())
				}
				ex := &executor{q: in.Query, strat: strat, cntAttr: in.Query.NumAttrs() + cntOff}
				walkSteps(root, func(st *step) {
					switch {
					case st.caseI != nil:
						kinds["case I"]++
					case st.caseII != nil:
						kinds["case II"]++
					default:
						kinds["base"]++
					}
					checkStep(t, ex, st)
				})
			})
		}
	}
	for _, k := range []string{"case I", "case II", "base"} {
		if kinds[k] == 0 {
			t.Errorf("no %s step compiled across the inputs", k)
		}
	}
}

// TestPlanningIndependentOfData: the number of shape-cache lookups of a
// run depends on the query and the structural paths it reaches, not on
// how many heavy values or light groups the data has. Not parallel: the
// counters are process-wide.
func TestPlanningIndependentOfData(t *testing.T) {
	lookups := func(n int) uint64 {
		in := workload.Figure4Hard(n)
		c := mpc.NewCluster(64)
		defer c.Release()
		before := plan.Snapshot()
		if _, err := Run(c.Root(), in, Options{Strategy: PathOptimal}); err != nil {
			t.Fatal(err)
		}
		after := plan.Snapshot()
		return after.Hits + after.Misses + after.EquivHits + after.EquivMisses -
			(before.Hits + before.Misses + before.EquivHits + before.EquivMisses)
	}
	small, large := lookups(20), lookups(200)
	t.Logf("shape-cache lookups per run: Figure4Hard(20) %d, Figure4Hard(200) %d", small, large)
	if small != large {
		t.Fatalf("planning depends on the data: %d lookups at n=20, %d at n=200", small, large)
	}
}

// TestParallelWorkersMatchSequential: under the parallel engine,
// concurrent branches reach the same child links and compile them once;
// the run must charge exactly what the sequential engine charges.
func TestParallelWorkersMatchSequential(t *testing.T) {
	for _, in := range []*relation.Instance{
		workload.Figure4Hard(6),
		workload.HeavyHub(hypergraph.SemiJoinExample(), 60),
	} {
		for _, strat := range []Strategy{Conservative, PathOptimal} {
			runWith := func(workers int) (*Result, mpc.Stats) {
				c := mpc.NewCluster(16, mpc.WithWorkers(workers))
				defer c.Release()
				res, err := Run(c.Root(), in, Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				st := c.Stats()
				st.SeqFallback = false
				return res, st
			}
			r1, s1 := runWith(1)
			r4, s4 := runWith(4)
			if r1.Emitted != r4.Emitted || r1.L != r4.L || s1 != s4 {
				t.Errorf("%s/%s: workers=4 %d L=%d %v, workers=1 %d L=%d %v",
					in.Query.Name(), strat, r4.Emitted, r4.L, s4, r1.Emitted, r1.L, s1)
			}
		}
	}
}

func TestRunRejectsUnknownStrategy(t *testing.T) {
	c := mpc.NewCluster(4)
	defer c.Release()
	in := workload.Uniform(hypergraph.PathJoin(3), 30, 10, 1)
	if _, err := Run(c.Root(), in, Options{Strategy: Strategy(7)}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if st := c.Stats(); st.Rounds != 0 || st.TotalUnits != 0 {
		t.Fatalf("exchanged before rejecting the strategy: %v", st)
	}
}
