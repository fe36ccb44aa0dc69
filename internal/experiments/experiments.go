// Package experiments regenerates every table and figure of the paper
// as a measured experiment (the per-experiment index lives in
// DESIGN.md; expected-vs-measured is recorded in EXPERIMENTS.md). Each
// function returns printable tables so that cmd/experiments, the
// benchmark suite and the tests share one implementation.
//
// Every measured experiment is decomposed into independent sched.Cells
// — one simulator run (or one lower-bound inversion) each — executed by
// the run-level sweep scheduler. Cells write into indexed result slots;
// tables are assembled from the slots only after the scheduler returns,
// in the same order a sequential pass would produce. Instances are
// built sequentially before scheduling and shared read-only by the
// cells, so every table is byte-identical for every Config.RunWorkers
// and Config.MemBudget setting (the difftest oracle pins this).
package experiments

import (
	"fmt"
	"math"

	"coverpack"
	"coverpack/internal/core"
	"coverpack/internal/em"
	"coverpack/internal/fractional"
	"coverpack/internal/hypergraph"
	"coverpack/internal/lowerbound"
	"coverpack/internal/mpc"
	"coverpack/internal/sched"
	"coverpack/internal/workload"
)

// Table is one printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Config scales the experiments; Small is used by tests and CI-like
// runs, the default sizes by cmd/experiments and the benchmarks.
type Config struct {
	Small bool
	// Workers sets the simulator's intra-run goroutine pool: how many
	// goroutines ONE simulated run spreads its chunks over (0/1
	// sequential, n > 1 that many workers, negative GOMAXPROCS). Every
	// table is identical for every setting; only wall-clock time
	// changes.
	Workers int
	// RunWorkers sets the run-level sweep scheduler pool: how many
	// experiment cells (one simulator run each) execute concurrently
	// (0/1 sequential, n > 1 that many cells, negative GOMAXPROCS).
	// Independent of Workers — the two multiply. Every table is
	// byte-identical for every setting.
	RunWorkers int
	// MemBudget caps the summed working-set cost — total input tuples;
	// big AGM instances count more — of concurrently admitted cells.
	// 0 selects DefaultMemBudget; negative disables the gate.
	MemBudget int64
}

// DefaultMemBudget is the admission-gate default: the summed input
// tuples of concurrently running cells stays below this, so a sweep
// over big AGM instances cannot multiply its resident footprint by the
// worker count.
const DefaultMemBudget = 4 << 20

func (c Config) pick(small, big int) int {
	if c.Small {
		return small
	}
	return big
}

// eo is the ExecOptions shared by every execution of the config.
func (c Config) eo() coverpack.ExecOptions {
	return coverpack.ExecOptions{Workers: c.Workers}
}

// schedOpts maps the config onto scheduler options.
func (c Config) schedOpts() sched.Options {
	b := c.MemBudget
	switch {
	case b == 0:
		b = DefaultMemBudget
	case b < 0:
		b = 0
	}
	return sched.Options{Workers: c.RunWorkers, Budget: b}
}

// runCells executes one experiment's cell list under the config's
// scheduler settings.
func runCells(cfg Config, cells []sched.Cell) error {
	_, err := sched.Run(cells, cfg.schedOpts())
	return err
}

// cellCost is the admission-gate weight of a cell running on in.
func cellCost(in *coverpack.Instance) int64 { return int64(in.TotalTuples()) }

// execCell builds the scheduler cell for one simulator run: alg on in
// at p servers, report delivered through put (a caller-owned slot).
func execCell(cfg Config, key string, alg coverpack.Algorithm, in *coverpack.Instance, p int, put func(*coverpack.Report)) sched.Cell {
	eo := cfg.eo()
	return sched.Cell{Key: key, Cost: cellCost(in), Run: func() error {
		rep, err := coverpack.ExecuteOpts(alg, in, p, eo)
		if err != nil {
			return err
		}
		put(rep)
		return nil
	}}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func itoa(v int) string   { return fmt.Sprintf("%d", v) }
func load(v int) string   { return fmt.Sprintf("%d", v) }

// Table1 reproduces the worst-case complexity table: measured load
// scalings of the one-round and multi-round algorithms against the
// proved exponents 1/ψ*, 1/ρ* and the lower bound 1/τ*.
func Table1(cfg Config) ([]Table, error) {
	ps := []int{4, 16, 64}
	type row struct {
		q    *coverpack.Query
		in   *coverpack.Instance
		alg  coverpack.Algorithm
		cell string
	}
	n := cfg.pick(600, 4000)
	nAcyclic := cfg.pick(256, 1024) // AGM instances square in N, keep modest

	semiQ := hypergraph.SemiJoinExample()
	dualQ := hypergraph.StarDualJoin(3)
	lineQ := hypergraph.Line3Join()
	triQ := hypergraph.TriangleJoin()

	lineAGM, err := coverpack.AGMWorstCase(lineQ, nAcyclic)
	if err != nil {
		return nil, err
	}
	rows := []row{
		{semiQ, coverpack.HeavyHub(semiQ, n), coverpack.AlgSkewAware, "one-round (ψ*)"},
		{semiQ, coverpack.HeavyHub(semiQ, n), coverpack.AlgAcyclicOptimal, "multi-round (ρ*)"},
		{dualQ, workload.StarDualHard(3, n, 1), coverpack.AlgSkewAware, "one-round (ψ*)"},
		{dualQ, workload.StarDualHard(3, n, 1), coverpack.AlgAcyclicOptimal, "multi-round (ρ*)"},
		{lineQ, lineAGM, coverpack.AlgAcyclicOptimal, "multi-round (ρ*)"},
		{triQ, coverpack.Matching(triQ, n), coverpack.AlgHyperCube, "one-round (τ* on skew-free)"},
	}

	// One cell per (row, p): a single simulator run writing its report
	// into a caller-owned slot.
	reps := make([][]*coverpack.Report, len(rows))
	var cells []sched.Cell
	for ri := range rows {
		reps[ri] = make([]*coverpack.Report, len(ps))
		r := rows[ri]
		for pi, p := range ps {
			ri, pi := ri, pi
			cells = append(cells, execCell(cfg,
				fmt.Sprintf("table1/%s/%s/p%d", r.q.Name(), r.alg, p),
				r.alg, r.in, p,
				func(rep *coverpack.Report) { reps[ri][pi] = rep }))
		}
	}
	if err := runCells(cfg, cells); err != nil {
		return nil, err
	}

	out := Table{
		Title:  "Table 1 — measured load scalings vs proved exponents",
		Header: []string{"query", "algorithm", "regime", "load@p4", "load@p16", "load@p64", "fitted x in N/p^(1/x)", "theory"},
	}
	for ri, r := range rows {
		an, err := coverpack.Analyze(r.q)
		if err != nil {
			return nil, err
		}
		profile := em.LoadProfile{N: r.in.N(), Points: make(map[int]int, len(ps))}
		for pi, p := range ps {
			rep := reps[ri][pi]
			profile.Points[p] = rep.Stats.MaxLoad
			if rep.Stats.Rounds > profile.Rounds {
				profile.Rounds = rep.Stats.Rounds
			}
		}
		x, _, err := em.FitExponent(profile)
		if err != nil {
			return nil, err
		}
		var theory float64
		switch {
		case r.alg == coverpack.AlgAcyclicOptimal || r.alg == coverpack.AlgAcyclicConservative:
			rho, _ := an.Rho.Float64()
			theory = rho
		case r.alg == coverpack.AlgSkewAware:
			psi, _ := an.Psi.Float64()
			theory = psi
		case r.alg == coverpack.AlgTriangle:
			rho, _ := an.Rho.Float64()
			theory = rho
		default:
			tau, _ := an.Tau.Float64()
			theory = tau
		}
		out.Rows = append(out.Rows, []string{
			r.q.Name(), r.alg.String(), r.cell,
			load(profile.Points[4]), load(profile.Points[16]), load(profile.Points[64]),
			f3(x), f3(theory),
		})
	}

	tri, err := binaryJoinRows(cfg)
	if err != nil {
		return nil, err
	}
	lb, err := lowerBoundRows(cfg)
	if err != nil {
		return nil, err
	}
	return []Table{out, tri, lb}, nil
}

// binaryJoinRows is the Table 1 binary-relation multi-round cell: the
// triangle algorithm on the AGM worst case, swept over perfect-cube
// server counts so the HyperCube shares are exact (p = s³ gives shares
// s×s×s and load exactly ~3N/p^{2/3} for the light stratum).
func binaryJoinRows(cfg Config) (Table, error) {
	q := hypergraph.TriangleJoin()
	n := cfg.pick(400, 4096)
	in := mustAGMInst(q, n)
	ps := []int{8, 27, 216}
	loads := make([]int, len(ps))
	cells := make([]sched.Cell, len(ps))
	for pi, p := range ps {
		pi := pi
		cells[pi] = execCell(cfg,
			fmt.Sprintf("table1/triangle-agm/p%d", p),
			coverpack.AlgTriangle, in, p,
			func(rep *coverpack.Report) { loads[pi] = rep.Stats.MaxLoad })
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Table 1 — binary-relation multi-round cell: triangle algorithm (AGM worst case)",
		Header: []string{"p", "measured load", "theory N/p^(2/3)", "measured/theory"},
	}
	for pi, p := range ps {
		theory := float64(n) / math.Pow(float64(p), 2.0/3.0)
		t.Rows = append(t.Rows, []string{
			itoa(p), load(loads[pi]), f3(theory),
			f3(float64(loads[pi]) / theory),
		})
	}
	return t, nil
}

// mustAGMInst builds the AGM worst case or panics (catalog queries
// always succeed).
func mustAGMInst(q *coverpack.Query, n int) *coverpack.Instance {
	in, err := coverpack.AGMWorstCase(q, n)
	if err != nil {
		panic(err)
	}
	return in
}

// lowerBoundRows is the Table 1 lower-bound cell: the Q_□ counting
// argument at several p. Each p's MinLoad inversion — a search over
// J(L) measurements — is one scheduler cell.
func lowerBoundRows(cfg Config) (Table, error) {
	q := hypergraph.SquareJoin()
	a, err := lowerbound.Analyze(q)
	if err != nil {
		return Table{}, err
	}
	n := cfg.pick(1000, 1728)
	in := workload.ProvableHard(q, a.Witness, n, 9)
	out := int64(in.Rel(0).Len()) * int64(in.Rel(1).Len())
	ps := []int{8, 27, 64, 216}
	results := make([]lowerbound.MinLoadResult, len(ps))
	cells := make([]sched.Cell, len(ps))
	for pi, p := range ps {
		cells[pi] = sched.Cell{
			Key:  fmt.Sprintf("table1/lowerbound-square/p%d", p),
			Cost: cellCost(in),
			Run: func() error {
				results[pi] = lowerbound.MinLoad(a, in, p, out)
				return nil
			},
		}
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Table 1 — lower-bound cell: Q_□ counting argument (Theorem 6)",
		Header: []string{"p", "min feasible load (measured)", "packing bound N/p^(1/τ*)", "cover bound N/p^(1/ρ*)"},
	}
	for pi, p := range ps {
		r := results[pi]
		t.Rows = append(t.Rows, []string{
			itoa(p), itoa(r.MinL), f3(r.PackingBound), f3(r.CoverBound),
		})
	}
	return t, nil
}

// Figure1 reproduces the classification diagram as a membership table.
func Figure1() (Table, error) {
	t := Table{
		Title:  "Figure 1 — classification of join queries",
		Header: []string{"query", "class", "acyclic", "berge", "r-hier", "deg-2", "LW", "pack-provable"},
	}
	for _, e := range coverpack.Catalog() {
		a, err := coverpack.Analyze(e.Query)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			e.Query.Name(), a.Class(),
			yn(a.Acyclic), yn(a.BergeAcyclic), yn(a.RHierarchical),
			yn(a.DegreeTwo), yn(a.LoomisWhitney), yn(a.EdgePackingProvable),
		})
	}
	return t, nil
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Figure2 reproduces the ⊠-join panel: structure and the cover/packing
// supports the caption states.
func Figure2() (Table, error) {
	q := hypergraph.SquareJoin()
	cover, err := fractional.EdgeCover(q)
	if err != nil {
		return Table{}, err
	}
	pack, err := fractional.EdgePacking(q)
	if err != nil {
		return Table{}, err
	}
	w, err := fractional.EdgePackingProvable(q)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Figure 2 — the ⊠-join Q_□",
		Header: []string{"fact", "value"},
	}
	paperW := workload.SquareWitness(q)
	t.Rows = append(t.Rows,
		[]string{"query", q.String()},
		[]string{"ρ* (cover support)", fmt.Sprintf("%s via %s", cover.Number.RatString(), q.FormatEdges(cover.Support()))},
		[]string{"τ* (packing support)", fmt.Sprintf("%s via %s", pack.Number.RatString(), q.FormatEdges(pack.Support()))},
		[]string{"edge-packing-provable", yn(w.Provable)},
		[]string{"witness E' (search)", q.FormatEdges(w.ProbEdges)},
		[]string{"witness E' (paper, Thm 6)", q.FormatEdges(paperW.ProbEdges)},
		[]string{"paper cover x", "x_A=x_B=x_C=1/3, x_D=x_E=x_F=2/3"},
	)
	return t, nil
}

// Figure3 reproduces the ρ* vs τ* landscape with the inequalities the
// paper proves per class.
func Figure3() (Table, error) {
	t := Table{
		Title:  "Figure 3 — ρ* vs τ* of reduced joins",
		Header: []string{"query", "ρ*", "τ*", "ψ*", "relation", "checked"},
	}
	for _, e := range coverpack.Catalog() {
		q, _ := e.Query.Reduce()
		nums, err := fractional.Compute(q)
		if err != nil {
			return Table{}, err
		}
		rel, ok := "τ*, ρ* incomparable", true
		switch c := nums.Tau.Cmp(nums.Rho); {
		case q.IsBergeAcyclic():
			rel = "berge-acyclic ⇒ τ* ≤ ρ*"
			ok = c <= 0
		case q.IsDegreeTwo():
			rel = "degree-two ⇒ τ* ≥ |E|/2 ≥ ρ*"
			ok = c >= 0
		}
		t.Rows = append(t.Rows, []string{
			q.Name(), nums.Rho.RatString(), nums.Tau.RatString(), nums.Psi.RatString(), rel, yn(ok),
		})
	}
	return t, nil
}

// Figure4 reproduces Example 3.4: the conservative run's L (driven by
// the N^7 sub-join) vs the path-optimal run's L (N/p^{1/6}) and the
// measured loads of both runs on the hard instance.
func Figure4(cfg Config) (Table, error) {
	n := cfg.pick(4, 8)
	in := workload.Figure4Hard(n)
	ps := []int{4, 16}
	type pair struct{ cons, opt *coverpack.Report }
	res := make([]pair, len(ps))
	var cells []sched.Cell
	for pi, p := range ps {
		pi := pi
		cells = append(cells,
			execCell(cfg, fmt.Sprintf("figure4/conservative/p%d", p),
				coverpack.AlgAcyclicConservative, in, p,
				func(r *coverpack.Report) { res[pi].cons = r }),
			execCell(cfg, fmt.Sprintf("figure4/optimal/p%d", p),
				coverpack.AlgAcyclicOptimal, in, p,
				func(r *coverpack.Report) { res[pi].opt = r }),
		)
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Figure 4 / Example 3.4 — conservative vs path-optimal run on the hard instance",
		Header: []string{"p", "L conservative (Thm 2)", "L optimal (§4.3)", "load conservative", "load optimal"},
	}
	for pi, p := range ps {
		lc := core.ChooseL(in, p, core.Conservative)
		lo := core.ChooseL(in, p, core.PathOptimal)
		rc, ro := res[pi].cons, res[pi].opt
		if rc.Emitted != ro.Emitted {
			return Table{}, fmt.Errorf("figure4: emission mismatch %d vs %d", rc.Emitted, ro.Emitted)
		}
		t.Rows = append(t.Rows, []string{
			itoa(p), itoa(lc), itoa(lo),
			load(rc.Stats.MaxLoad), load(ro.Stats.MaxLoad),
		})
	}
	// The asymptotic comparison the example states: at N = 10^6 the
	// conservative threshold is (N^7/p)^{1/7} = N/p^{1/7} vs the
	// optimal N/p^{1/6}.
	bigN := 1e6
	p := 4096.0
	t.Rows = append(t.Rows, []string{
		"analytic N=1e6, p=4096",
		fmt.Sprintf("%.0f", bigN/math.Pow(p, 1.0/7)),
		fmt.Sprintf("%.0f", bigN/math.Pow(p, 1.0/6)),
		"—", "—",
	})
	return t, nil
}

// Figure5 reproduces the twig / linear-cover decomposition on the
// Figure 4 query: the node-disjoint paths the path-optimal run peels.
func Figure5() (Table, error) {
	choices, err := core.Decomposition(hypergraph.Figure4Join())
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Figure 5 — linear cover: paths peeled by the path-optimal run (figure-4 query)",
		Header: []string{"step", "first attribute x", "path S^x", "residual"},
	}
	for i, c := range choices {
		t.Rows = append(t.Rows, []string{
			itoa(i + 1), c.Attr, fmt.Sprint(c.Path), fmt.Sprint(c.Residual),
		})
	}
	return t, nil
}

// Figure6 reproduces the linear-join panel: the line-3 query (the
// canonical linear join, ρ* = 2) on its AGM worst case — measured load
// of the optimal run vs N/p^{1/2} and the one-round baseline.
func Figure6(cfg Config) (Table, error) {
	q := hypergraph.Line3Join()
	n := cfg.pick(256, 1024)
	in, err := coverpack.AGMWorstCase(q, n)
	if err != nil {
		return Table{}, err
	}
	ps := []int{4, 16, 64}
	type pair struct{ opt, hc *coverpack.Report }
	res := make([]pair, len(ps))
	var cells []sched.Cell
	for pi, p := range ps {
		pi := pi
		cells = append(cells,
			execCell(cfg, fmt.Sprintf("figure6/optimal/p%d", p),
				coverpack.AlgAcyclicOptimal, in, p,
				func(r *coverpack.Report) { res[pi].opt = r }),
			execCell(cfg, fmt.Sprintf("figure6/hypercube/p%d", p),
				coverpack.AlgHyperCube, in, p,
				func(r *coverpack.Report) { res[pi].hc = r }),
		)
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Figure 6 — linear join (line-3) on the AGM worst case",
		Header: []string{"p", "load optimal-run", "theory N/p^(1/2)", "load one-round HC"},
	}
	for pi, p := range ps {
		t.Rows = append(t.Rows, []string{
			itoa(p), load(res[pi].opt.Stats.MaxLoad),
			f3(float64(in.N()) / math.Sqrt(float64(p))),
			load(res[pi].hc.Stats.MaxLoad),
		})
	}
	return t, nil
}

// Figure7 reproduces the edge-packing-provable panel: the spoke family
// with its measured counting-argument loads vs the packing and cover
// bounds. Each spoke size is one cell (the MinLoad inversion dominates).
func Figure7(cfg Config) (Table, error) {
	type cse struct {
		k, n int
	}
	cases := []cse{{3, cfg.pick(1000, 1728)}, {4, cfg.pick(2401, 4096)}}
	if !cfg.Small {
		cases = append(cases, cse{5, 7776})
	}
	p := 64
	type slot struct {
		a *lowerbound.Analysis
		r lowerbound.MinLoadResult
	}
	slots := make([]slot, len(cases))
	cells := make([]sched.Cell, len(cases))
	for ci, c := range cases {
		q := hypergraph.SpokeJoin(c.k)
		a, err := lowerbound.Analyze(q)
		if err != nil {
			return Table{}, err
		}
		in := workload.ProvableHard(q, a.Witness, c.n, 11)
		out := int64(in.Rel(0).Len()) * int64(in.Rel(1).Len())
		slots[ci].a = a
		cells[ci] = sched.Cell{
			Key:  fmt.Sprintf("figure7/%s/p%d", q.Name(), p),
			Cost: cellCost(in),
			Run: func() error {
				slots[ci].r = lowerbound.MinLoad(a, in, p, out)
				return nil
			},
		}
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Figure 7 — edge-packing-provable joins: measured lower bounds",
		Header: []string{"query", "τ*", "ρ*", "p", "min feasible load", "packing bound", "cover bound"},
	}
	for _, s := range slots {
		t.Rows = append(t.Rows, []string{
			s.a.Query.Name(), f3(s.a.Tau), f3(s.a.Rho), itoa(p),
			itoa(s.r.MinL), f3(s.r.PackingBound), f3(s.r.CoverBound),
		})
	}
	return t, nil
}

// Section13 reproduces the worked example of the introduction: one
// round costs Õ(N/√p) on R1(A) ⋈ R2(A,B) ⋈ R3(B) while two semi-join
// rounds reach linear load, and the star-dual join widens the gap to
// p^{(m−1)/m}.
func Section13(cfg Config) (Table, error) {
	n := cfg.pick(2000, 8000)
	tcs := []struct {
		q  *coverpack.Query
		in *coverpack.Instance
	}{
		{hypergraph.SemiJoinExample(), coverpack.HeavyHub(hypergraph.SemiJoinExample(), n)},
		{hypergraph.StarDualJoin(3), workload.StarDualHard(3, n, 3)},
	}
	ps := []int{16, 64}
	type pair struct{ one, multi *coverpack.Report }
	res := make([][]pair, len(tcs))
	var cells []sched.Cell
	for ti, tc := range tcs {
		res[ti] = make([]pair, len(ps))
		for pi, p := range ps {
			ti, pi := ti, pi
			cells = append(cells,
				execCell(cfg, fmt.Sprintf("section13/%s/one-round/p%d", tc.q.Name(), p),
					coverpack.AlgSkewAware, tc.in, p,
					func(r *coverpack.Report) { res[ti][pi].one = r }),
				execCell(cfg, fmt.Sprintf("section13/%s/multi-round/p%d", tc.q.Name(), p),
					coverpack.AlgAcyclicOptimal, tc.in, p,
					func(r *coverpack.Report) { res[ti][pi].multi = r }),
			)
		}
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Section 1.3 — one-round vs multi-round gap",
		Header: []string{"query", "p", "one-round load", "N/p^(1/ψ*)", "multi-round load", "N/p"},
	}
	for ti, tc := range tcs {
		an, err := coverpack.Analyze(tc.q)
		if err != nil {
			return Table{}, err
		}
		psi, _ := an.Psi.Float64()
		for pi, p := range ps {
			r1, rm := res[ti][pi].one, res[ti][pi].multi
			if r1.Emitted != rm.Emitted {
				return Table{}, fmt.Errorf("section13: emission mismatch")
			}
			t.Rows = append(t.Rows, []string{
				tc.q.Name(), itoa(p),
				load(r1.Stats.MaxLoad), f3(float64(n) / math.Pow(float64(p), 1/psi)),
				load(rm.Stats.MaxLoad), f3(float64(n) / float64(p)),
			})
		}
	}
	return t, nil
}

// EMCorollary reproduces the Section 1.4 external-memory corollary:
// the measured MPC profile of the acyclic algorithm converts to
// O(N^{ρ*}/(M^{ρ*−1}B)) I/Os under the [19] reduction.
func EMCorollary(cfg Config) (Table, error) {
	q := hypergraph.Line3Join()
	n := cfg.pick(256, 1024)
	in, err := coverpack.AGMWorstCase(q, n)
	if err != nil {
		return Table{}, err
	}
	ps := []int{4, 16, 64}
	reps := make([]*coverpack.Report, len(ps))
	cells := make([]sched.Cell, len(ps))
	for pi, p := range ps {
		pi := pi
		cells[pi] = execCell(cfg,
			fmt.Sprintf("em/line3-agm/p%d", p),
			coverpack.AlgAcyclicOptimal, in, p,
			func(rep *coverpack.Report) { reps[pi] = rep })
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	profile := em.LoadProfile{N: in.N(), Points: make(map[int]int, len(ps))}
	for pi, p := range ps {
		profile.Points[p] = reps[pi].Stats.MaxLoad
		if reps[pi].Stats.Rounds > profile.Rounds {
			profile.Rounds = reps[pi].Stats.Rounds
		}
	}
	x, _, err := em.FitExponent(profile)
	if err != nil {
		return Table{}, err
	}
	machine := coverpack.EMachine{M: n / 4, B: 16}
	res, err := coverpack.EMReduce(profile, machine)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Section 1.4 — MPC→EM reduction on the acyclic algorithm (line-3, AGM worst case)",
		Header: []string{"fitted ρ*", "p*", "priced I/Os", "closed form N^ρ/(M^(ρ−1)B)"},
	}
	t.Rows = append(t.Rows, []string{
		f3(x), itoa(res.PStar),
		fmt.Sprintf("%.3g", res.IOs), fmt.Sprintf("%.3g", res.ClosedForm),
	})
	return t, nil
}

// AblationSkew sweeps the Zipf skew parameter on the star join and
// reports how each algorithm's load degrades — the motivation for the
// heavy/light machinery: one-round vanilla HyperCube suffers with
// skew, the multi-round algorithm does not.
func AblationSkew(cfg Config) (Table, error) {
	q := hypergraph.StarJoin(2)
	n := cfg.pick(800, 3000)
	p := 16
	ss := []float64{0.0, 0.8, 1.2}
	algs := []coverpack.Algorithm{
		coverpack.AlgHyperCube, coverpack.AlgSkewAware, coverpack.AlgAcyclicOptimal,
	}
	ins := make([]*coverpack.Instance, len(ss))
	for si, s := range ss {
		if s == 0 {
			ins[si] = coverpack.Uniform(q, n, int64(4*n), 21)
		} else {
			ins[si] = coverpack.Zipf(q, n, int64(4*n), s, 21)
		}
	}
	loads := make([][3]int, len(ss))
	emitted := make([][3]int64, len(ss))
	var cells []sched.Cell
	for si := range ss {
		in := ins[si]
		for ai, alg := range algs {
			si, ai := si, ai
			cells = append(cells, execCell(cfg,
				fmt.Sprintf("ablation-skew/s%.1f/%s", ss[si], alg),
				alg, in, p,
				func(rep *coverpack.Report) {
					loads[si][ai] = rep.Stats.MaxLoad
					emitted[si][ai] = rep.Emitted
				}))
		}
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation — skew sensitivity (star-2, p=16)",
		Header: []string{"zipf s", "hypercube load", "skew-aware load", "acyclic-optimal load"},
	}
	for si, s := range ss {
		if emitted[si][0] != emitted[si][1] || emitted[si][1] != emitted[si][2] {
			return Table{}, fmt.Errorf("ablation: emission mismatch %v", emitted[si])
		}
		t.Rows = append(t.Rows, []string{
			f3(s), load(loads[si][0]), load(loads[si][1]), load(loads[si][2]),
		})
	}
	return t, nil
}

// AblationThreshold sweeps the load threshold L around the Section 4.3
// choice on the line-3 worst case, exposing the server/load trade-off
// of Theorem 1.
func AblationThreshold(cfg Config) (Table, error) {
	q := hypergraph.Line3Join()
	n := cfg.pick(256, 1024)
	in, err := coverpack.AGMWorstCase(q, n)
	if err != nil {
		return Table{}, err
	}
	p := 16
	base := core.ChooseL(in, p, core.PathOptimal)
	muls := []struct {
		label string
		num   int
		den   int
	}{{"1/2", 1, 2}, {"1", 1, 1}, {"2", 2, 1}, {"4", 4, 1}}
	type slot struct {
		l  int
		st mpc.Stats
	}
	slots := make([]slot, len(muls))
	cells := make([]sched.Cell, len(muls))
	for mi, mul := range muls {
		l := base * mul.num / mul.den
		if l < 1 {
			l = 1
		}
		slots[mi].l = l
		cells[mi] = sched.Cell{
			Key:  fmt.Sprintf("ablation-threshold/L%s", mul.label),
			Cost: cellCost(in),
			Run: func() error {
				c := mpcCluster(cfg, p)
				defer c.Release()
				if _, err := core.Run(c.Root(), in, core.Options{Strategy: core.PathOptimal, L: l}); err != nil {
					return err
				}
				slots[mi].st = c.Stats()
				return nil
			},
		}
	}
	if err := runCells(cfg, cells); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation — threshold L (line-3 worst case, p=16)",
		Header: []string{"L/L*", "L", "measured load", "virtual servers used"},
	}
	for mi, mul := range muls {
		t.Rows = append(t.Rows, []string{
			mul.label, itoa(slots[mi].l), load(slots[mi].st.MaxLoad), itoa(slots[mi].st.ServersUsed),
		})
	}
	return t, nil
}

func mpcCluster(cfg Config, p int) *mpc.Cluster {
	if cfg.Workers != 0 && cfg.Workers != 1 {
		return mpc.NewCluster(p, mpc.WithWorkers(cfg.Workers))
	}
	return mpc.NewCluster(p)
}

// All runs every experiment.
func All(cfg Config) ([]Table, error) {
	var out []Table
	t1, err := Table1(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, t1...)
	for _, f := range []func() (Table, error){Figure1, Figure2, Figure3, Figure5} {
		t, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	for _, f := range []func(Config) (Table, error){Figure4, Figure6, Figure7, Section13, EMCorollary, AblationSkew, AblationThreshold} {
		t, err := f(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
