package coverpack_test

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"coverpack"
	"coverpack/internal/hypergraph"
	"coverpack/internal/relation"
)

// The differential determinism oracle: every workload query × every
// algorithm that accepts it, executed under each row of one table of
// configurations, must produce the same report (emitted count, Stats,
// chosen L) and the same trace — span tree and per-phase load
// attribution — bit for bit as the reference run. The reference is the
// sequential, cache-off, pool-off, materialized, resident run: the
// pre-caching, pre-pooling, pre-streaming, pre-spilling code path, so
// any divergence in a row is a determinism-contract violation.
//
// A row is an ExecOptions value. Streaming, parallel kernels, the
// exchange-plan cache, workers and spilling are all carried by the
// run's own cluster, so rows that set nothing else run side by side
// under t.Parallel() — which is itself part of what the oracle pins.
// The pool-off and index-cache-off rows turn process-wide stores off
// and therefore run one at a time, before the parallel group (as do
// the plan-compile and metrics oracles in their own files).
//
// Spill rows park exchange outputs to disk under a budget small enough
// that every oracle instance overflows it. Besides byte-identity they
// check that out-of-core execution actually happened (the park counter
// moves) and that the run's spill directory is empty afterwards.
//
// Stats.SeqFallback is the one deliberate exception: it records the
// execution mode (whether WithWorkers degraded to sequential on a
// single-CPU host), not a result, so comparisons normalize it.

var oracleAlgorithms = []coverpack.Algorithm{
	coverpack.AlgAcyclicOptimal,
	coverpack.AlgAcyclicConservative,
	coverpack.AlgHyperCube,
	coverpack.AlgSkewAware,
	coverpack.AlgYannakakis,
	coverpack.AlgTriangle,
	coverpack.AlgLoomisWhitney,
}

// oracleWorkerSet returns the worker counts of the table: sequential,
// a fixed 4, and the machine's CPU count.
func oracleWorkerSet() []int {
	ws := []int{1, 4}
	if n := runtime.NumCPU(); n > 1 && n != 4 {
		ws = append(ws, n)
	}
	return ws
}

// spillArmBudget is small enough that every oracle instance's exchange
// working set exceeds it, forcing real parks.
const spillArmBudget = 4 << 10

// oracleArm is one row of the table: the ExecOptions of the run plus,
// for the serial rows only, the process-wide stores it runs without.
// Spill rows name no directory; each run gets a fresh one.
type oracleArm struct {
	eo      coverpack.ExecOptions
	noIndex bool // relation.SetIndexCaching(false)
	noPool  bool // coverpack.SetPooling(false)
}

func (a oracleArm) serial() bool  { return a.noIndex || a.noPool }
func (a oracleArm) spilled() bool { return a.eo.Spilling == coverpack.SpillOn }

func (a oracleArm) String() string {
	s := fmt.Sprintf("workers=%d", a.eo.Workers)
	for _, f := range []struct {
		on   bool
		name string
	}{
		{a.eo.NoPlanCache, "plancache-off"},
		{a.noIndex, "index-off"},
		{a.noPool, "pool-off"},
		{a.eo.Streaming == coverpack.StreamOff, "stream-off"},
		{a.eo.ParKernels == coverpack.ParKernelOff, "morsel-off"},
		{a.spilled(), "spill-on"},
	} {
		if f.on {
			s += "," + f.name
		}
	}
	return s
}

// oracleReference is the run every row is compared against.
var oracleReference = oracleArm{
	eo:      coverpack.ExecOptions{Workers: 1, NoPlanCache: true, Streaming: coverpack.StreamOff},
	noIndex: true,
	noPool:  true,
}

// oracleArms builds the table. Resident rows: the full workers ×
// NoPlanCache × Streaming × ParKernels product (ParKernelOff only
// where workers > 1 lets kernels engage at all), then the serial rows —
// pool-off, cache-off (plan cache and retained indexes together, the
// pre-caching path) and both — at workers 1 and 4 in both streaming
// modes. Spill rows: workers × Streaming, since parked relations are
// read back by page-in on the materialized path and by segment
// iterators on the streaming one.
func oracleArms(spill bool) []oracleArm {
	streams := []coverpack.StreamMode{coverpack.StreamDefault, coverpack.StreamOff}
	var arms []oracleArm
	if spill {
		for _, w := range oracleWorkerSet() {
			for _, st := range streams {
				arms = append(arms, oracleArm{eo: coverpack.ExecOptions{
					Workers: w, Streaming: st,
					Spilling: coverpack.SpillOn, SpillBudgetBytes: spillArmBudget,
				}})
			}
		}
		return arms
	}
	for _, w := range oracleWorkerSet() {
		for _, noCache := range []bool{false, true} {
			for _, st := range streams {
				eo := coverpack.ExecOptions{Workers: w, NoPlanCache: noCache, Streaming: st}
				arms = append(arms, oracleArm{eo: eo})
				if w > 1 {
					eo.ParKernels = coverpack.ParKernelOff
					arms = append(arms, oracleArm{eo: eo})
				}
			}
		}
	}
	for _, w := range []int{1, 4} {
		for _, st := range streams {
			on := coverpack.ExecOptions{Workers: w, Streaming: st}
			off := on
			off.NoPlanCache = true
			arms = append(arms, oracleArm{eo: on, noPool: true}, oracleArm{eo: off, noIndex: true})
			if both := (oracleArm{eo: off, noIndex: true, noPool: true}); both != oracleReference {
				arms = append(arms, both)
			}
		}
	}
	return arms
}

// runArtifacts is everything one traced run produces that the
// determinism contract covers.
type runArtifacts struct {
	rep    *coverpack.Report
	root   *coverpack.TraceSpan
	phases []coverpack.PhaseRow
}

// tracedExec runs one execution with a collector attached.
func tracedExec(alg coverpack.Algorithm, in *coverpack.Instance, p int, eo coverpack.ExecOptions) (*runArtifacts, error) {
	col := coverpack.NewTraceCollector()
	eo.Recorder = col
	rep, err := coverpack.ExecuteOpts(alg, in, p, eo)
	if err != nil {
		return nil, err
	}
	root := col.Root()
	return &runArtifacts{rep, root, coverpack.PhaseTable(root)}, nil
}

// run executes one row. Serial rows switch their process-wide stores
// off for the duration; spill rows run in a fresh directory that must
// be empty again once ExecuteOpts has released its cluster.
func (a oracleArm) run(t *testing.T, alg coverpack.Algorithm, in *coverpack.Instance, p int) (*runArtifacts, error) {
	t.Helper()
	if a.noIndex {
		relation.SetIndexCaching(false)
		defer relation.SetIndexCaching(true)
	}
	if a.noPool {
		coverpack.SetPooling(false)
		defer coverpack.SetPooling(true)
	}
	eo := a.eo
	if a.spilled() {
		eo.SpillDir = t.TempDir()
		defer assertEmptyDir(t, eo.SpillDir)
	}
	return tracedExec(alg, in, p, eo)
}

// assertRunsAgree compares a run against the reference across every
// observable. SeqFallback is execution metadata (see the file comment),
// so it is zeroed on both sides before comparing.
func assertRunsAgree(t *testing.T, label string, ref, got *runArtifacts) {
	t.Helper()
	rr, gr := *ref.rep, *got.rep
	rr.Stats.SeqFallback, gr.Stats.SeqFallback = false, false
	if rr != gr {
		t.Errorf("%s: report diverged\n  reference: emitted=%d stats={%v} L=%d\n  candidate: emitted=%d stats={%v} L=%d",
			label, ref.rep.Emitted, ref.rep.Stats, ref.rep.L, got.rep.Emitted, got.rep.Stats, got.rep.L)
	}
	if !reflect.DeepEqual(ref.phases, got.phases) {
		t.Errorf("%s: per-phase load attribution diverged:\n  reference: %+v\n  candidate: %+v", label, ref.phases, got.phases)
	}
	if !reflect.DeepEqual(ref.root, got.root) {
		t.Errorf("%s: trace span trees diverged (events, order, or structure)", label)
	}
}

// runOracle exercises every algorithm that accepts the instance's
// query under each row: the serial rows first, one at a time, then the
// ExecOptions-only rows concurrently. The group subtest returns only
// when its parallel rows are done, so no serial row ever overlaps them.
func runOracle(t *testing.T, in *coverpack.Instance, p int, arms []oracleArm) {
	for _, alg := range oracleAlgorithms {
		ref, err := oracleReference.run(t, alg, in, p)
		if err != nil {
			// The algorithm rejects this query class (e.g. AlgTriangle on a
			// star); nothing to compare.
			continue
		}
		check := func(t *testing.T, arm oracleArm) {
			label := in.Query.Name() + "/" + alg.String() + "/" + arm.String()
			got, err := arm.run(t, alg, in, p)
			if err != nil {
				t.Errorf("%s: run failed where the reference succeeded: %v", label, err)
				return
			}
			assertRunsAgree(t, label, ref, got)
		}
		for _, arm := range arms {
			if arm.serial() {
				check(t, arm)
			}
		}
		t.Run(alg.String(), func(t *testing.T) {
			for _, arm := range arms {
				if arm.serial() {
					continue
				}
				t.Run(arm.String(), func(t *testing.T) {
					t.Parallel()
					check(t, arm)
				})
			}
		})
	}
}

// largeOracleQueries have relations big enough (with the instances
// below) to cross the engine's fan-out threshold of 1024 tuples and to
// overflow spillArmBudget in every algorithm's exchanges.
func largeOracleQueries() []*hypergraph.Query {
	return []*hypergraph.Query{
		hypergraph.SemiJoinExample(),
		hypergraph.Line3Join(),
		hypergraph.TriangleJoin(),
		hypergraph.StarDualJoin(3),
	}
}

// skewOracleQueries run on HeavyHub instances: heavy/light splits take
// different branches (Distribute and SendTo placements) than uniform
// data.
func skewOracleQueries() []*hypergraph.Query {
	return []*hypergraph.Query{hypergraph.SemiJoinExample(), hypergraph.TriangleJoin()}
}

// TestDeterminismOracleCatalog sweeps the full paper catalog at a
// moderate instance size.
func TestDeterminismOracleCatalog(t *testing.T) {
	for _, entry := range coverpack.Catalog() {
		t.Run(entry.Query.Name(), func(t *testing.T) {
			runOracle(t, coverpack.Uniform(entry.Query, 400, 500, 1), 8, oracleArms(false))
		})
	}
}

// TestDeterminismOracleLarge re-runs a query subset on instances where
// the chunked exchange paths — not just the sequential fallbacks — are
// the ones being compared.
func TestDeterminismOracleLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances skipped in -short mode")
	}
	for _, q := range largeOracleQueries() {
		t.Run(q.Name(), func(t *testing.T) {
			runOracle(t, coverpack.Uniform(q, 1600, 2000, 7), 8, oracleArms(false))
		})
	}
}

// TestDeterminismOracleSkew covers the skewed-instance code paths.
func TestDeterminismOracleSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("skew instances skipped in -short mode")
	}
	for _, q := range skewOracleQueries() {
		t.Run(q.Name(), func(t *testing.T) {
			runOracle(t, coverpack.HeavyHub(q, 1500), 8, oracleArms(false))
		})
	}
}

// TestSpillDeterminismOracle runs the spill rows over the large
// instances, and checks that they really went out of core.
func TestSpillDeterminismOracle(t *testing.T) {
	before := coverpack.SpillStats()
	for _, q := range largeOracleQueries() {
		t.Run(q.Name(), func(t *testing.T) {
			runOracle(t, coverpack.Uniform(q, 1600, 2000, 7), 8, oracleArms(true))
		})
	}
	sc := coverpack.SpillStats()
	if sc.Parks == before.Parks {
		t.Fatal("spill rows parked nothing: the out-of-core path never engaged")
	}
	if sc.BytesWritten == before.BytesWritten || sc.BytesRead == before.BytesRead {
		t.Fatal("spill rows moved no bytes through segment files")
	}
}

// TestSpillHeavyHubSkew runs the spill rows over the skewed instances.
func TestSpillHeavyHubSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("skew instances skipped in -short mode")
	}
	for _, q := range skewOracleQueries() {
		t.Run(q.Name(), func(t *testing.T) {
			runOracle(t, coverpack.HeavyHub(q, 1500), 8, oracleArms(true))
		})
	}
}

// TestSpillSequentialPeakWithinBudget pins the budget enforcement the
// spill rows rely on: with one worker, every admission parks down to
// the budget, so the retained peak cannot exceed it. The gauge is
// process-wide, which is why this is not a row of the parallel group.
func TestSpillSequentialPeakWithinBudget(t *testing.T) {
	coverpack.ResetSpillRetainedPeak()
	in := coverpack.Uniform(hypergraph.TriangleJoin(), 2000, 2500, 3)
	if _, err := coverpack.ExecuteOpts(coverpack.AlgTriangle, in, 8, coverpack.ExecOptions{
		Workers:          1,
		Spilling:         coverpack.SpillOn,
		SpillDir:         t.TempDir(),
		SpillBudgetBytes: spillArmBudget,
	}); err != nil {
		t.Fatal(err)
	}
	peak := coverpack.SpillRetainedPeakBytes()
	if peak == 0 {
		t.Fatal("no spill admission recorded a retained peak")
	}
	if peak > spillArmBudget {
		t.Fatalf("sequential retained peak %d bytes exceeds the %d-byte budget", peak, spillArmBudget)
	}
}

// TestSpillDirLeavesNothingBehind: ExecuteOpts owns its per-run spill
// subdirectory; after an untraced run at the default worker count
// returns, the caller's directory is empty again.
func TestSpillDirLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	in := coverpack.Uniform(hypergraph.Line3Join(), 1600, 2000, 7)
	if _, err := coverpack.ExecuteOpts(coverpack.AlgYannakakis, in, 8, coverpack.ExecOptions{
		Spilling:         coverpack.SpillOn,
		SpillDir:         dir,
		SpillBudgetBytes: spillArmBudget,
	}); err != nil {
		t.Fatal(err)
	}
	assertEmptyDir(t, dir)
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%d entries left in spill dir %s after the run", len(ents), dir)
	}
}
