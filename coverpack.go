// Package coverpack is a Go reproduction of "Cover or Pack: New Upper
// and Lower Bounds for Massively Parallel Joins" (Xiao Hu, PODS 2021).
//
// It bundles, behind one API:
//
//   - Join queries as hypergraphs with the full classification toolkit
//     (α-/Berge-acyclicity, hierarchical, degree-two, Loomis-Whitney,
//     edge-packing-provable) and exact fractional numbers ρ*, τ*, ψ*.
//   - A deterministic MPC simulator (servers, rounds, load accounting).
//   - The paper's multi-round worst-case optimal algorithm for acyclic
//     joins (load Õ(N/p^{1/ρ*}), Theorems 1–5) plus the baselines it is
//     measured against: one-round HyperCube, its skew-aware variant
//     (Õ(N/p^{1/ψ*})), and parallel Yannakakis.
//   - The Section 5 lower-bound machinery: hard instance generators and
//     the per-server emission maximizer J(L) whose counting argument
//     yields the Ω(N/p^{1/τ*}) bound for cyclic joins.
//
// The quick start:
//
//	q := coverpack.MustParseQuery("line3", "R1(A,B) R2(B,C) R3(C,D)")
//	an, _ := coverpack.Analyze(q)            // ρ*, τ*, ψ*, classes
//	in := coverpack.Uniform(q, 10000, 500, 1)
//	rep, _ := coverpack.Execute(coverpack.AlgAcyclicOptimal, in, 16)
//	fmt.Println(rep.Emitted, rep.Stats.MaxLoad)
package coverpack

import (
	"fmt"
	"math/big"
	"sync/atomic"

	"coverpack/internal/core"
	"coverpack/internal/cyclic"
	"coverpack/internal/em"
	"coverpack/internal/fractional"
	"coverpack/internal/hypercube"
	"coverpack/internal/hypergraph"
	"coverpack/internal/lowerbound"
	"coverpack/internal/mpc"
	"coverpack/internal/plan"
	"coverpack/internal/relation"
	"coverpack/internal/workload"
	"coverpack/internal/yannakakis"
)

// Query is a natural join query modeled as a hypergraph (Section 1.1).
type Query = hypergraph.Query

// Instance is a database instance: one relation per hyperedge.
type Instance = relation.Instance

// Stats is the MPC cost of an execution: rounds, max per-round
// per-server load, total communication, peak virtual servers.
type Stats = mpc.Stats

// ParseQuery parses the paper's textual notation, e.g.
// "R1(A,B,C) R2(D,E,F) R3(A,D) R4(B,E) R5(C,F)".
func ParseQuery(name, s string) (*Query, error) { return hypergraph.Parse(name, s) }

// MustParseQuery is ParseQuery panicking on error.
func MustParseQuery(name, s string) *Query { return hypergraph.MustParse(name, s) }

// Catalog returns the paper's running-example queries with their
// Figure 1 class labels.
func Catalog() []hypergraph.CatalogEntry { return hypergraph.Catalog() }

// Analysis reports everything the paper's Table 1 / Figures 1–3 say
// about one query.
type Analysis struct {
	// Rho, Tau and Psi are ρ*, τ* and ψ* as exact rationals.
	Rho, Tau, Psi *big.Rat
	// Class flags (Figure 1).
	Acyclic             bool // α-acyclic
	BergeAcyclic        bool
	RHierarchical       bool // hierarchical after reduction
	DegreeTwo           bool
	LoomisWhitney       bool
	EdgePackingProvable bool // Definition 5.4
	// OneRoundExponent and MultiRoundExponent are the load exponents of
	// Table 1: one round pays N/p^{1/ψ*}; multi-round acyclic
	// evaluation pays N/p^{1/ρ*}; for edge-packing-provable cyclic
	// joins the proven floor is N/p^{1/τ*}.
	OneRoundExponent   float64
	MultiRoundExponent float64
	LowerBoundExponent float64
}

// Analysis memoization: ρ*/τ*/ψ* are LP solves over exact rationals
// and every field depends only on the query's hypergraph, so the
// analysis is one slot of the query's shape entry in the compiled-plan
// cache (internal/plan). Queries with the same edge structure — a
// catalog query run again, a renamed spelling, a per-run residual
// subquery — share one Analysis, which is why Analyze's result is
// immutable: mutate a Clone, never the returned value. Counters are
// diagnostics only.
var analyzeHits, analyzeMisses atomic.Uint64

// Clone returns a deep copy of the analysis that the caller may mutate
// freely. The *Analysis returned by Analyze is shared across callers
// and must be treated as immutable.
func (a *Analysis) Clone() *Analysis {
	b := *a
	b.Rho = new(big.Rat).Set(a.Rho)
	b.Tau = new(big.Rat).Set(a.Tau)
	b.Psi = new(big.Rat).Set(a.Psi)
	return &b
}

// AnalyzeCacheStats reports the hits and misses of the shape entries'
// analysis slot.
func AnalyzeCacheStats() (hits, misses uint64) {
	return analyzeHits.Load(), analyzeMisses.Load()
}

// ResetAnalyzeCache zeroes the analysis-slot counters (test seam). The
// analyses themselves live in the shape entries; ResetPlanCompileCache
// drops those.
func ResetAnalyzeCache() {
	analyzeHits.Store(0)
	analyzeMisses.Store(0)
}

// Analyze computes the query's classification and fractional numbers.
// Results are memoized per edge structure (see AnalyzeCacheStats,
// PlanCompileCacheStats); the returned Analysis is shared and
// immutable — use Clone before mutating.
func Analyze(q *Query) (*Analysis, error) {
	h, _ := plan.For(q)
	if v, hit := h.Invariant("analysis"); hit {
		analyzeHits.Add(1)
		return v.(*Analysis), nil
	}
	a, err := analyze(q)
	if err != nil {
		return nil, err
	}
	analyzeMisses.Add(1)
	h.SetInvariant("analysis", a)
	return a, nil
}

func analyze(q *Query) (*Analysis, error) {
	nums, err := fractional.Compute(q)
	if err != nil {
		return nil, err
	}
	red, _ := q.Reduce()
	// τ*(Q) is solved once, in Compute, and reused as ψ*'s first
	// residual there and as the witness LP's right-hand side here.
	w, err := fractional.EdgePackingProvableTau(q, nums.Tau)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Rho:                 nums.Rho,
		Tau:                 nums.Tau,
		Psi:                 nums.Psi,
		Acyclic:             q.IsAcyclic(),
		BergeAcyclic:        q.IsBergeAcyclic(),
		RHierarchical:       red.IsHierarchical(),
		DegreeTwo:           q.IsDegreeTwo(),
		LoomisWhitney:       q.IsLoomisWhitney(),
		EdgePackingProvable: w.Provable,
	}
	psi, _ := nums.Psi.Float64()
	rho, _ := nums.Rho.Float64()
	tau, _ := nums.Tau.Float64()
	a.OneRoundExponent = 1 / psi
	a.MultiRoundExponent = 1 / rho
	if w.Provable {
		a.LowerBoundExponent = 1 / tau
	} else {
		a.LowerBoundExponent = 1 / rho
	}
	return a, nil
}

// Class returns the finest Figure 1 label of the analysis.
func (a *Analysis) Class() string {
	switch {
	case a.RHierarchical:
		return "r-hierarchical"
	case a.BergeAcyclic:
		return "berge-acyclic"
	case a.Acyclic:
		return "alpha-acyclic"
	case a.LoomisWhitney:
		return "loomis-whitney"
	case a.EdgePackingProvable:
		return "edge-packing-provable"
	case a.DegreeTwo:
		return "degree-two"
	default:
		return "cyclic"
	}
}

// Instance generators (see internal/workload for details).

// Uniform fills each relation with n distinct uniform tuples over a
// per-attribute domain of dom values.
func Uniform(q *Query, n int, dom int64, seed uint64) *Instance {
	return workload.Uniform(q, n, dom, seed)
}

// Zipf fills each relation with n distinct tuples with Zipf(s)-skewed
// attribute values.
func Zipf(q *Query, n int, dom int64, s float64, seed uint64) *Instance {
	return workload.Zipf(q, n, dom, s, seed)
}

// Matching fills every relation with the diagonal (i, ..., i).
func Matching(q *Query, n int) *Instance { return workload.Matching(q, n) }

// HeavyHub builds a maximally skewed instance (one heavy shared value).
func HeavyHub(q *Query, n int) *Instance { return workload.HeavyHub(q, n) }

// AGMWorstCase builds the AGM-tight instance: relation sizes ≤ n,
// output Θ(n^{ρ*}).
func AGMWorstCase(q *Query, n int) (*Instance, error) { return workload.AGMWorstCase(q, n) }

// SquareHard builds the Theorem 6 hard instance for Q_□.
func SquareHard(n int, seed uint64) *Instance { return workload.SquareHard(n, seed) }

// Figure4Hard builds the Example 3.4 hard instance for the Figure 4
// query.
func Figure4Hard(n int) *Instance { return workload.Figure4Hard(n) }

// PackingHard builds the Theorem 7 hard instance for any
// edge-packing-provable query.
func PackingHard(q *Query, n int, seed uint64) (*Instance, error) {
	w, err := fractional.EdgePackingProvable(q)
	if err != nil {
		return nil, err
	}
	if !w.Provable {
		return nil, fmt.Errorf("coverpack: %s is not edge-packing-provable: %s", q.Name(), w.Reason)
	}
	return workload.ProvableHard(q, w, n, seed), nil
}

// Algorithm names one of the implemented MPC join algorithms.
type Algorithm int

const (
	// AlgAcyclicOptimal is the paper's contribution run with the
	// Section 4 path-optimal choices (Theorems 3–5): multi-round, load
	// Õ(N/p^{1/ρ*}).
	AlgAcyclicOptimal Algorithm = iota
	// AlgAcyclicConservative is the Theorem 1/2 run (S^x = {e1},
	// sub-join cost formula); suboptimal on Example 3.4-style inputs.
	AlgAcyclicConservative
	// AlgHyperCube is the classic one-round shares algorithm
	// (load Õ(N/p^{1/τ*}) on skew-free instances).
	AlgHyperCube
	// AlgSkewAware is the one-round skew-aware variant in the spirit of
	// [19] (worst-case load Õ(N/p^{1/ψ*})).
	AlgSkewAware
	// AlgYannakakis is the parallel Yannakakis baseline
	// (load O(N/p + OUT/p) modulo key skew; acyclic only).
	AlgYannakakis
	// AlgTriangle is the multi-round worst-case optimal algorithm for
	// the triangle join (Table 1's binary-relation cell, [18,19,25]):
	// heavy/light decomposition with acyclic residuals solved by the
	// core algorithm; load Õ(N/p^{2/3}).
	AlgTriangle
	// AlgLoomisWhitney generalizes AlgTriangle to every Loomis-Whitney
	// join LW_n (the triangle is LW_3): load Õ(N/p^{1/ρ*}) with
	// ρ* = n/(n−1).
	AlgLoomisWhitney
)

func (a Algorithm) String() string {
	switch a {
	case AlgAcyclicOptimal:
		return "acyclic-optimal"
	case AlgAcyclicConservative:
		return "acyclic-conservative"
	case AlgHyperCube:
		return "hypercube"
	case AlgSkewAware:
		return "hypercube-skew-aware"
	case AlgYannakakis:
		return "yannakakis"
	case AlgTriangle:
		return "triangle-multiround"
	case AlgLoomisWhitney:
		return "lw-multiround"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Report is the outcome of one execution.
type Report struct {
	Algorithm Algorithm
	// Emitted is the number of join results emitted (each exactly once).
	Emitted int64
	// Stats is the measured MPC cost.
	Stats Stats
	// L is the load threshold the acyclic algorithm chose (0 for other
	// algorithms).
	L int
}

// ExecOptions configures an execution beyond the algorithm and server
// budget. It is the run's only configuration for parallel execution:
// the worker count travels on the run's cluster, so executions with
// different ExecOptions are safe side by side, and no field writes
// process state. The process-wide stores — the memory pools, the
// retained first-row lists and the metrics registry — have no switch
// (SetMetricsEnabled is an inert stub).
type ExecOptions struct {
	// Workers sets the goroutine worker-pool size of the simulator's
	// parallel engine: 0 or 1 runs sequentially, n > 1 uses n workers,
	// and a negative value selects runtime.GOMAXPROCS(0). Results —
	// emitted count, Stats, traces — are byte-identical for every
	// setting (see internal/mpc's parallel-execution contract).
	Workers int
	// Recorder receives the execution's trace events (typically a
	// *TraceCollector); nil runs untraced.
	Recorder TraceRecorder
	// PlanStats, when non-nil, receives the run's HashPartition counts
	// after the run (see CacheStats).
	PlanStats *CacheStats
	// NoPlanCache, Streaming, Spilling, SpillDir, SpillBudgetBytes,
	// PlanCompile and ParKernels have no effect: there is no
	// exchange-plan cache, every run executes resident, with the same
	// exact-size operators, and writes no file, every run compiles
	// through the always-on shape cache, and local operators run in
	// parallel only across servers. They stay because internal/bench
	// names them, and go with that harness code when the benchmark
	// contract reopens (ROADMAP, Parked).
	NoPlanCache      bool
	Streaming        StreamMode
	Spilling         SpillMode
	SpillDir         string
	SpillBudgetBytes int64
	PlanCompile      PlanCompileMode
	ParKernels       ParKernelMode
}

// Execute runs one algorithm on a fresh p-server cluster and returns
// its report.
func Execute(alg Algorithm, in *Instance, p int) (*Report, error) {
	return ExecuteOpts(alg, in, p, ExecOptions{})
}

// ExecuteTraced is Execute with a trace recorder attached to the
// cluster (typically a *TraceCollector); rec == nil runs untraced.
func ExecuteTraced(alg Algorithm, in *Instance, p int, rec TraceRecorder) (*Report, error) {
	return ExecuteOpts(alg, in, p, ExecOptions{Recorder: rec})
}

// ExecuteOpts is Execute with full options.
func ExecuteOpts(alg Algorithm, in *Instance, p int, eo ExecOptions) (*Report, error) {
	if err := checkServers(p); err != nil {
		return nil, err
	}
	var opts []mpc.Option
	if eo.Recorder != nil {
		opts = append(opts, mpc.WithRecorder(eo.Recorder))
	}
	if eo.Workers != 0 && eo.Workers != 1 {
		opts = append(opts, mpc.WithWorkers(eo.Workers))
	}
	c := mpc.NewCluster(p, opts...)
	// The Report carries only scalars, so every exchange-produced
	// relation is dead once Stats is read: recycle the cluster's arenas
	// for the next run (on all paths, including errors).
	defer c.Release()
	g := c.Root()
	rep := &Report{Algorithm: alg}
	switch alg {
	case AlgAcyclicOptimal, AlgAcyclicConservative:
		strat := core.PathOptimal
		if alg == AlgAcyclicConservative {
			strat = core.Conservative
		}
		res, err := core.Run(g, in, core.Options{Strategy: strat})
		if err != nil {
			return nil, err
		}
		rep.Emitted = res.Emitted
		rep.L = res.L
	case AlgHyperCube:
		res, err := hypercube.Run(g, in)
		if err != nil {
			return nil, err
		}
		rep.Emitted = res.Emitted
	case AlgSkewAware:
		psiRat, err := cachedPsi(in.Query)
		if err != nil {
			return nil, err
		}
		psi, _ := psiRat.Float64()
		res, err := hypercube.SkewAware(g, in, psi)
		if err != nil {
			return nil, err
		}
		rep.Emitted = res.Emitted
	case AlgYannakakis:
		res, err := yannakakis.Run(g, in)
		if err != nil {
			return nil, err
		}
		rep.Emitted = res.Emitted
	case AlgTriangle:
		res, err := cyclic.RunTriangle(g, in)
		if err != nil {
			return nil, err
		}
		rep.Emitted = res.Emitted
	case AlgLoomisWhitney:
		res, err := cyclic.RunLW(g, in)
		if err != nil {
			return nil, err
		}
		rep.Emitted = res.Emitted
	default:
		return nil, fmt.Errorf("coverpack: unknown algorithm %v", alg)
	}
	rep.Stats = c.Stats()
	if eo.PlanStats != nil {
		*eo.PlanStats = c.PlanCacheStats()
	}
	return rep, nil
}

// cachedPsi is fractional.Psi through the shape cache: its 2^|V|
// residual enumeration is the single most expensive analysis step, so
// repeated skew-aware runs of one shape compute it once. The shared
// *big.Rat is read-only by contract.
func cachedPsi(q *Query) (*big.Rat, error) {
	h, _ := plan.For(q)
	if v, hit := h.Invariant("psi"); hit {
		return v.(*big.Rat), nil
	}
	psi, err := fractional.Psi(q)
	if err != nil {
		return nil, err
	}
	h.SetInvariant("psi", psi)
	return psi, nil
}

// checkServers rejects a server count no cluster can have.
func checkServers(p int) error {
	if p < 1 {
		return fmt.Errorf("coverpack: p must be >= 1, got %d", p)
	}
	return nil
}

// TraceRun executes an acyclic-algorithm run with a trace collector and
// returns its decision log (one line per reduction, Case I choice,
// branch fan-out and Case II split), read from the run's note spans by
// Decisions. Only the two acyclic strategies keep a decision log.
func TraceRun(alg Algorithm, in *Instance, p int) ([]string, error) {
	if err := checkServers(p); err != nil {
		return nil, err
	}
	if alg != AlgAcyclicOptimal && alg != AlgAcyclicConservative {
		return nil, fmt.Errorf("coverpack: %v does not support tracing", alg)
	}
	col := NewTraceCollector()
	if _, err := ExecuteOpts(alg, in, p, ExecOptions{Recorder: col}); err != nil {
		return nil, err
	}
	return Decisions(col.Root()), nil
}

// LoadScaling runs an algorithm across server counts and returns the
// measured load profile plus the fitted exponent x of L ≈ c·N/p^{1/x}
// — the estimator every Table 1 experiment compares against ρ*, τ* or
// ψ*.
func LoadScaling(alg Algorithm, in *Instance, ps []int) (em.LoadProfile, float64, error) {
	return LoadScalingOpts(alg, in, ps, ExecOptions{})
}

// LoadScalingOpts is LoadScaling with full execution options (the
// Recorder field is ignored: each server count is a separate cluster).
func LoadScalingOpts(alg Algorithm, in *Instance, ps []int, eo ExecOptions) (em.LoadProfile, float64, error) {
	eo.Recorder = nil
	profile := em.LoadProfile{N: in.N(), Points: make(map[int]int, len(ps))}
	for _, p := range ps {
		rep, err := ExecuteOpts(alg, in, p, eo)
		if err != nil {
			return profile, 0, err
		}
		profile.Points[p] = rep.Stats.MaxLoad
		if rep.Stats.Rounds > profile.Rounds {
			profile.Rounds = rep.Stats.Rounds
		}
	}
	x, _, err := em.FitExponent(profile)
	if err != nil {
		return profile, 0, err
	}
	return profile, x, nil
}

// EMachine re-exports the external-memory model parameters.
type EMachine = em.Params

// EMReduce applies the MPC→EM reduction of [19] to a measured load
// profile (Section 1.3/1.4).
func EMReduce(profile em.LoadProfile, machine EMachine) (*em.Result, error) {
	return em.Reduce(profile, machine)
}

// LowerBoundReport is the measurable form of Theorems 6–7.
type LowerBoundReport struct {
	// MinLoad is the smallest load L with p·J(L) ≥ OUT on the hard
	// instance (the counting argument made empirical).
	MinLoad int
	// PackingBound is the paper's new floor N/p^{1/τ*}.
	PackingBound float64
	// CoverBound is the AGM floor N/p^{1/ρ*} the paper shows is loose.
	CoverBound float64
	// Out is the output size counted against.
	Out int64
}

// LowerBound builds the Theorem 7 hard instance for an
// edge-packing-provable query at size n, measures J(L) over a load
// ladder, and inverts the counting argument for p servers. Output size
// is the analytic hub product for the generalized square family, and
// the oracle join size otherwise.
func LowerBound(q *Query, n, p int, seed uint64) (*LowerBoundReport, error) {
	a, err := lowerbound.Analyze(q)
	if err != nil {
		return nil, err
	}
	in := workload.ProvableHard(q, a.Witness, n, seed)
	out := hardOutput(in, a)
	r := lowerbound.MinLoad(a, in, p, out)
	return &LowerBoundReport{
		MinLoad:      r.MinL,
		PackingBound: r.PackingBound,
		CoverBound:   r.CoverBound,
		Out:          out,
	}, nil
}

// hardOutput returns the hard instance's output size: when every
// non-probabilistic relation is a complete Cartesian product the join is
// the product of the E'-relation sizes times the free deterministic
// attribute domains; for the catalog's spoke family this is the product
// of the two hub sizes. Fall back to the oracle for anything else.
func hardOutput(in *Instance, a *lowerbound.Analysis) int64 {
	q := in.Query
	if q.NumEdges() >= 2 && q.EdgeIndex("R1") == 0 && q.EdgeIndex("R2") == 1 {
		return int64(in.Rel(0).Len()) * int64(in.Rel(1).Len())
	}
	return in.JoinSize()
}
