package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"coverpack"
	"coverpack/internal/hypergraph"
	"coverpack/internal/workload"
)

// Case is one op of a pass: one ExecuteOpts call on a fixed instance.
type Case struct {
	// Name keys the per-layer metric case.<Name>.ms_p50; catalog cases
	// carry the query name and have no metric of their own.
	Name string
	Alg  coverpack.Algorithm
	In   *coverpack.Instance
	P    int
	Opts coverpack.ExecOptions
	// Compile makes the op call CompileQuery first (the sweep shape);
	// Cold makes it drop the compile caches before that.
	Compile, Cold bool
	// Spilled marks a case that runs under a spill budget: after every
	// op the bench's spill directory must be empty again.
	Spilled bool
	// Closed names the closed form Expect was checked against in
	// set-up ("" = Instance.JoinSize only); Expect is the output size
	// every op must emit, Bound the paper's load bound for Alg.
	Closed string
	Expect int64
	Bound  float64
}

// Workload is a fixed list of cases run in order; one run of the list
// is a pass.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// NotGated, when set, is why BENCHMARK.json does not list the
	// workload: the full benchmark runs it like the others, a driver
	// that holds every workload to the same bounds does not.
	NotGated string
	// build generates the cases; sizes are divided by scale (1 in the
	// benchmark, 10 in the smoke test).
	build func(spillDir string, seed uint64, scale int) ([]Case, error)
}

// ParWorkers is the worker count of the parallel workload:
// min(nproc, 4), so never more workers than cores — except on one core,
// where it still asks for two: the engine then reports a sequential
// fallback (Stats.SeqFallback, mpc.engine.seq_fallbacks) and the run is
// flagged, where Workers=1 would pass a sequential run off as the
// parallel workload's number.
func ParWorkers() int { return max(min(runtime.NumCPU(), 4), 2) }

const (
	bigP     = 64
	catalogP = 16
	catalogN = 120
	// spillBudget is the resident budget of spill_tight: at 4 MiB the
	// Yannakakis case never pages in, at 1 MiB it both parks and pages
	// in.
	spillBudget = 1 << 20
)

// Workloads lists the benchmark's workloads in run order.
func Workloads() []Workload {
	return []Workload{
		{Name: "acyclic_wc", Why: "paper's acyclic algorithm on AGM worst-case, Figure 4 hard and heavy-hub inputs: core + primitives dominate, compile is under 1%", build: buildAcyclicWC},
		{Name: "oneround_skew", Why: "one-round baselines (skew-aware, HyperCube): hypercube strata, mpc.Route replication and hashtab local joins; core does nothing", build: buildOneRoundSkew},
		{Name: "exchange_seq", Why: "output-sensitive Yannakakis + triangle at Workers=1: mpc.HashPartition/plan cache and relation join/semijoin/sort kernels; sequential twin of exchange_par", build: buildExchangeSeq},
		{Name: "exchange_par", Why: "the exchange_seq cases on min(nproc,4) workers: the only workload where the morsel engine and *Par kernels can pay, and cpu_ms_per_pass shows their price", build: buildExchangePar},
		{Name: "spill_tight", Why: "the Yannakakis case of exchange_seq under a 1 MiB spill budget: the same relation/mpc code writing segments and paging them back in", build: buildSpillTight,
			NotGated: "its wall time follows what a file creation costs on the spill directory's filesystem (0.02 to 0.5 ms on the reference box's ext4, by the minute), not the engine"},
		{Name: "catalog_cold", Why: "all 15 catalog queries compiled from empty caches then run at N=120: lp/fractional/hypergraph/plan do most of the work", build: buildCatalogCold},
		{Name: "catalog_warm", Why: "the catalog_cold ops with warm caches (the experiments sweep shape): per-run fixed cost dominates, compile must read as zero", build: buildCatalogWarm},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Build generates the workload's cases, computes each case's expected
// output size and load bound, and returns the time the generators took.
// spillDir is the bench-owned directory spill_tight parks into.
func (w Workload) Build(spillDir string, seed uint64, scale int) ([]Case, time.Duration, error) {
	start := time.Now()
	cases, err := w.build(spillDir, seed, scale)
	gen := time.Since(start)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", w.Name, err)
	}
	for i := range cases {
		if err := cases[i].prepare(); err != nil {
			return nil, 0, fmt.Errorf("%s/%s: %w", w.Name, cases[i].Name, err)
		}
	}
	return cases, gen, nil
}

// Tuples is the input size of a pass.
func Tuples(cases []Case) int {
	n := 0
	for _, c := range cases {
		n += c.In.TotalTuples()
	}
	return n
}

func scaled(n, scale int) int {
	if n /= scale; n < 2 {
		n = 2
	}
	return n
}

func buildAcyclicWC(_ string, _ uint64, scale int) ([]Case, error) {
	line3, err := workload.AGMWorstCase(hypergraph.Line3Join(), scaled(20000, scale))
	if err != nil {
		return nil, err
	}
	path4, err := workload.AGMWorstCase(hypergraph.PathJoin(4), scaled(3000, scale))
	if err != nil {
		return nil, err
	}
	alg := coverpack.AlgAcyclicOptimal
	return []Case{
		{Name: "line3_agm", Alg: alg, In: line3, P: bigP, Closed: "agm"},
		{Name: "path4_agm", Alg: alg, In: path4, P: bigP, Closed: "agm"},
		{Name: "figure4_hard", Alg: alg, In: workload.Figure4Hard(scaled(200, scale)), P: bigP},
		{Name: "semijoin_hub", Alg: alg, In: workload.HeavyHub(hypergraph.SemiJoinExample(), scaled(40000, scale)), P: bigP, Closed: "n"},
	}, nil
}

func buildOneRoundSkew(_ string, seed uint64, scale int) ([]Case, error) {
	return []Case{
		{Name: "stardual_hard", Alg: coverpack.AlgSkewAware, In: workload.StarDualHard(3, scaled(4000, scale), seed), P: bigP},
		{Name: "semijoin_hub_skew", Alg: coverpack.AlgSkewAware, In: workload.HeavyHub(hypergraph.SemiJoinExample(), scaled(8000, scale)), P: bigP, Closed: "n"},
		{Name: "triangle_matching", Alg: coverpack.AlgHyperCube, In: workload.Matching(hypergraph.TriangleJoin(), scaled(20000, scale)), P: bigP, Closed: "n"},
	}, nil
}

func exchangeCases(seed uint64, scale int, opts coverpack.ExecOptions) []Case {
	n := scaled(50000, scale)
	// The domain scales with n so the output stays ≈6 results per
	// input tuple at every size.
	dom := int64(scaled(20000, scale))
	return []Case{
		{Name: "yannakakis_line3", Alg: coverpack.AlgYannakakis, In: workload.Uniform(hypergraph.Line3Join(), n, dom, seed), P: bigP, Opts: opts},
		{Name: "triangle_hub", Alg: coverpack.AlgTriangle, In: workload.HeavyHub(hypergraph.TriangleJoin(), scaled(10000, scale)), P: bigP, Opts: opts, Closed: "n"},
	}
}

func buildExchangeSeq(_ string, seed uint64, scale int) ([]Case, error) {
	return exchangeCases(seed, scale, coverpack.ExecOptions{Workers: 1}), nil
}

func buildExchangePar(_ string, seed uint64, scale int) ([]Case, error) {
	return exchangeCases(seed, scale, coverpack.ExecOptions{Workers: ParWorkers()}), nil
}

func buildSpillTight(spillDir string, seed uint64, scale int) ([]Case, error) {
	c := exchangeCases(seed, scale, coverpack.ExecOptions{
		Workers: 1, Spilling: coverpack.SpillOn, SpillDir: spillDir, SpillBudgetBytes: int64(spillBudget / scale),
	})[0]
	c.Spilled = true
	return []Case{c}, nil
}

// compilesFast reports whether a run at this scale compiles q: that
// costs 2^|V| LP solves (the ψ* enumeration), so a scaled-down run
// keeps the queries of at most 6 attributes.
func compilesFast(q *hypergraph.Query, scale int) bool {
	return scale == 1 || q.NumAttrs() <= 6
}

func catalogCases(scale int, cold bool) []Case {
	var cases []Case
	for _, e := range hypergraph.Catalog() {
		if !compilesFast(e.Query, scale) {
			continue
		}
		cases = append(cases, Case{
			Name: e.Query.Name(), In: workload.Matching(e.Query, scaled(catalogN, scale)), P: catalogP,
			Compile: true, Cold: cold, Closed: "nested-loop",
		})
	}
	return cases
}

func buildCatalogCold(_ string, _ uint64, scale int) ([]Case, error) {
	return catalogCases(scale, true), nil
}

func buildCatalogWarm(_ string, _ uint64, scale int) ([]Case, error) {
	return catalogCases(scale, false), nil
}

// prepare fixes the case's algorithm (catalog cases run what
// CompileQuery recommends), its expected output size and its load
// bound. The expected size is Instance.JoinSize, cross-checked against
// a closed form or the bench's own nested-loop evaluator where the
// case names one.
func (c *Case) prepare() error {
	an, err := coverpack.Analyze(c.In.Query)
	if err != nil {
		return err
	}
	if c.Compile {
		c.Alg = coverpack.RecommendAlgorithm(an)
	}
	c.Expect = c.In.JoinSize()
	var closed int64
	switch c.Closed {
	case "":
		closed = c.Expect
	case "n":
		closed = int64(c.In.N())
	case "agm":
		// Every relation is the full product of its attribute domains,
		// so the join is the product of all attribute domains: N^ρ*
		// up to the generator's rounding.
		closed = DomainProduct(Plain(c.In))
	case "nested-loop":
		closed = NestedLoopCount(Plain(c.In))
	default:
		return fmt.Errorf("unknown closed form %q", c.Closed)
	}
	if closed != c.Expect {
		return fmt.Errorf("oracle disagreement: JoinSize=%d, %s=%d", c.Expect, c.Closed, closed)
	}
	c.Bound = loadBound(c.Alg, an, c.In.N(), c.P, c.Expect)
	return nil
}

// loadBound is the paper's per-server load bound for the algorithm,
// without the polylog factor.
func loadBound(alg coverpack.Algorithm, an *coverpack.Analysis, n, p int, out int64) float64 {
	N, P := float64(n), float64(p)
	rat := func(r interface{ Float64() (float64, bool) }) float64 { f, _ := r.Float64(); return f }
	switch alg {
	case coverpack.AlgHyperCube:
		return N / math.Pow(P, 1/rat(an.Tau))
	case coverpack.AlgSkewAware:
		return N / math.Pow(P, 1/rat(an.Psi))
	case coverpack.AlgTriangle:
		return N / math.Pow(P, 2.0/3)
	case coverpack.AlgYannakakis:
		return (N + float64(out)) / P
	default: // acyclic-optimal, acyclic-conservative, lw
		return N / math.Pow(P, 1/rat(an.Rho))
	}
}

// Plain copies an instance out of the engine's storage into the
// oracle's terms: per relation, the attribute id of each column and
// the rows as plain slices.
func Plain(in *coverpack.Instance) (attrs [][]int, rows [][][]int64) {
	for _, r := range in.Relations {
		attrs = append(attrs, r.Schema().Attrs())
		rs := make([][]int64, r.Len())
		for i := range rs {
			rs[i] = append([]int64(nil), r.Row(i)...)
		}
		rows = append(rows, rs)
	}
	return attrs, rows
}
