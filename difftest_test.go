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
// sequential, cache-off, pool-off, index-off run: the pre-caching,
// pre-pooling code path, so any divergence in a row is a
// determinism-contract violation.
//
// A row is an ExecOptions value. Parallel kernels, the exchange-plan
// cache and workers are all carried by the run's own cluster, so rows
// that set nothing else run side by side
// under t.Parallel() — which is itself part of what the oracle pins.
// The pool-off and index-cache-off rows turn process-wide stores off
// and therefore run one at a time, before the parallel group (as do
// the plan-compile and metrics oracles in their own files).
//
// Every parallel row also runs untraced (trace-off): with no recorder
// the engine skips span bookkeeping and per-branch trace buffers, which
// is the path untraced callers take, and its report must still equal
// the traced reference's.
//
// Spill rows set ExecOptions' Spilling, SpillDir and SpillBudgetBytes,
// which have no effect since out-of-core execution was retired but
// stay until the harness that reads them goes. The rows pin that
// contract: under a budget every instance would overflow, a spill row
// still matches the reference, writes nothing to its directory and
// moves no spill counter.
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

// spillArmBudget is a spill budget every oracle instance's exchange
// working set exceeds.
const spillArmBudget = 4 << 10

// oracleArm is one row of the table: the ExecOptions of the run plus,
// for the serial rows only, the process-wide stores it runs without.
type oracleArm struct {
	eo       coverpack.ExecOptions
	noIndex  bool // relation.SetIndexCaching(false)
	noPool   bool // coverpack.SetPooling(false)
	untraced bool // no Recorder: the report is all the run produces
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
		{a.eo.ParKernels == coverpack.ParKernelOff, "morsel-off"},
		{a.spilled(), "spill-on"},
		{a.untraced, "trace-off"},
	} {
		if f.on {
			s += "," + f.name
		}
	}
	return s
}

// oracleReference is the run every row is compared against.
var oracleReference = oracleArm{
	eo:      coverpack.ExecOptions{Workers: 1, NoPlanCache: true},
	noIndex: true,
	noPool:  true,
}

// oracleArms builds the table: the full workers × NoPlanCache ×
// ParKernels product (ParKernelOff only where workers > 1 lets kernels
// engage at all), then the serial rows — pool-off, cache-off (plan
// cache and retained first-row lists together, the pre-caching path) and
// both — at workers 1 and 4. Each parallel row is then repeated
// untraced.
func oracleArms() []oracleArm {
	var arms []oracleArm
	for _, w := range oracleWorkerSet() {
		for _, noCache := range []bool{false, true} {
			eo := coverpack.ExecOptions{Workers: w, NoPlanCache: noCache}
			arms = append(arms, oracleArm{eo: eo})
			if w > 1 {
				eo.ParKernels = coverpack.ParKernelOff
				arms = append(arms, oracleArm{eo: eo})
			}
		}
	}
	for _, w := range []int{1, 4} {
		on := coverpack.ExecOptions{Workers: w}
		off := on
		off.NoPlanCache = true
		arms = append(arms, oracleArm{eo: on, noPool: true}, oracleArm{eo: off, noIndex: true})
		if both := (oracleArm{eo: off, noIndex: true, noPool: true}); both != oracleReference {
			arms = append(arms, both)
		}
	}
	return withUntraced(arms)
}

// spillArms builds the spill rows: one per worker count, each repeated
// untraced. Each run gets a fresh directory.
func spillArms() []oracleArm {
	var arms []oracleArm
	for _, w := range oracleWorkerSet() {
		arms = append(arms, oracleArm{eo: coverpack.ExecOptions{
			Workers:  w,
			Spilling: coverpack.SpillOn, SpillBudgetBytes: spillArmBudget,
		}})
	}
	return withUntraced(arms)
}

// withUntraced appends an untraced copy of every parallel row.
func withUntraced(arms []oracleArm) []oracleArm {
	for _, a := range arms[:len(arms):len(arms)] {
		if !a.serial() {
			a.untraced = true
			arms = append(arms, a)
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
// still be empty when ExecuteOpts returns.
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
	if a.untraced {
		rep, err := coverpack.ExecuteOpts(alg, in, p, eo)
		if err != nil {
			return nil, err
		}
		return &runArtifacts{rep: rep}, nil
	}
	return tracedExec(alg, in, p, eo)
}

// assertRunsAgree compares a run against the reference across every
// observable it produced: an untraced run has only its report.
// SeqFallback is execution metadata (see the file comment), so it is
// zeroed on both sides before comparing.
func assertRunsAgree(t *testing.T, label string, ref, got *runArtifacts) {
	t.Helper()
	rr, gr := *ref.rep, *got.rep
	rr.Stats.SeqFallback, gr.Stats.SeqFallback = false, false
	if rr != gr {
		t.Errorf("%s: report diverged\n  reference: emitted=%d stats={%v} L=%d\n  candidate: emitted=%d stats={%v} L=%d",
			label, ref.rep.Emitted, ref.rep.Stats, ref.rep.L, got.rep.Emitted, got.rep.Stats, got.rep.L)
	}
	if got.root == nil {
		return
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
// below) to cross the engine's fan-out threshold of 1024 tuples.
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
			runOracle(t, coverpack.Uniform(entry.Query, 400, 500, 1), 8, oracleArms())
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
			runOracle(t, coverpack.Uniform(q, 1600, 2000, 7), 8, oracleArms())
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
			runOracle(t, coverpack.HeavyHub(q, 1500), 8, oracleArms())
		})
	}
}

// TestSpillDeterminismOracle runs the spill rows over the large
// instances, and checks that no spill counter moved.
func TestSpillDeterminismOracle(t *testing.T) {
	for _, q := range largeOracleQueries() {
		t.Run(q.Name(), func(t *testing.T) {
			runOracle(t, coverpack.Uniform(q, 1600, 2000, 7), 8, spillArms())
		})
	}
	if sc := coverpack.SpillStats(); sc != (coverpack.SpillCounters{}) {
		t.Fatalf("spill rows moved spill counters: %+v", sc)
	}
}

// TestSpillHeavyHubSkew runs the spill rows over the skewed instances.
func TestSpillHeavyHubSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("skew instances skipped in -short mode")
	}
	for _, q := range skewOracleQueries() {
		t.Run(q.Name(), func(t *testing.T) {
			runOracle(t, coverpack.HeavyHub(q, 1500), 8, spillArms())
		})
	}
}

// TestSpillDirLeavesNothingBehind: an untraced spill run at the default
// worker count leaves the caller's directory empty.
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
