package coverpack_test

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
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
// sequential traced run, taken after every arena class up to the
// largest the oracle asks for has been seeded with sentinel-filled
// arenas (seedArenas): a kernel that reads pooled memory it did not
// write carries the sentinel into its output and diverges, so any
// divergence in a row is a determinism-contract violation.
//
// A row is an ExecOptions value. Workers are carried by the run's own
// cluster, and no row touches process state, so every row runs side by
// side under t.Parallel() — which is itself part of what the oracle
// pins.
//
// Every row also runs untraced (trace-off): with no recorder
// the engine skips span bookkeeping and per-branch trace buffers, which
// is the path untraced callers take, and its report must still equal
// the traced reference's.
//
// Spill rows set ExecOptions' Spilling, SpillDir and SpillBudgetBytes,
// which have no effect since out-of-core execution was retired but
// stay until the harness that reads them goes. The rows pin that
// contract: under a budget every instance would overflow, a spill row
// still matches the reference, writes nothing to its directory and
// moves no spill counter. Morsel-off rows likewise set ExecOptions'
// ParKernels, which has no effect since local operators stopped running
// over row blocks (a server is the unit of local parallelism); they pin
// that setting it changes nothing.
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
// 2 and 4, an odd 3 (the token pool never splits evenly over the
// servers), 8 (one worker per server at p = 8), 16 (more workers than
// servers at p = 8, so a fork over the servers leaves workers idle) and
// the machine's CPU count. At p = 64 every count is far below the
// server count, so each worker runs many servers of a fork.
func oracleWorkerSet() []int {
	ws := []int{1, 2, 3, 4, 8, 16}
	if n := runtime.NumCPU(); !slices.Contains(ws, n) {
		ws = append(ws, n)
	}
	return ws
}

// spillArmBudget is a spill budget every oracle instance's exchange
// working set exceeds.
const spillArmBudget = 4 << 10

// oracleArm is one row of the table: the ExecOptions of the run, traced
// or not.
type oracleArm struct {
	eo       coverpack.ExecOptions
	untraced bool // no Recorder: the report is all the run produces
}

func (a oracleArm) spilled() bool { return a.eo.Spilling == coverpack.SpillOn }

func (a oracleArm) String() string {
	s := fmt.Sprintf("workers=%d", a.eo.Workers)
	for _, f := range []struct {
		on   bool
		name string
	}{
		{a.eo.ParKernels != coverpack.ParKernelDefault, "morsel-off"},
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
var oracleReference = oracleArm{eo: coverpack.ExecOptions{Workers: 1}}

// oracleArenaBits is the largest arena class, in log₂ values, that an
// oracle run asks the arena pool for (measured over the oracle's
// instances: 204 800 values).
const oracleArenaBits = 18

// seedDepth is the number of sentinel arenas seeded per class: more
// than any one kernel holds at once.
const seedDepth = 4

// sentinel fills the seeded arenas. No instance holds it, so a row that
// carries it into an output reads memory its kernel never wrote.
const sentinel = relation.Value(-0x5eed5eed5eed5eed)

// seedArenas hands the arena pool seedDepth sentinel-filled arenas of
// every class up to 1<<oracleArenaBits values, so the next gets of each
// class take them. It takes every arena out before it puts any back,
// smallest first, which leaves the pool's reserve as much room as it
// can. What overflows the reserve goes to the sync.Pool tier, which a
// collection may empty, so beyond the reserve the seeding is best
// effort.
func seedArenas() {
	var held [][]relation.Value
	for n := 1 << 8; n <= 1<<oracleArenaBits; n <<= 1 { // from the smallest class
		for range seedDepth {
			a := relation.GetArena(n)
			held = append(held, a[:cap(a)])
		}
	}
	for _, a := range held {
		for i := range a {
			a[i] = sentinel
		}
		relation.PutArena(a)
	}
}

// oracleArms builds the table at p = 8: one row per worker count, with
// a morsel-off twin for each count above 1. Each row is then repeated
// untraced.
func oracleArms() []oracleArm {
	var arms []oracleArm
	for _, w := range oracleWorkerSet() {
		eo := coverpack.ExecOptions{Workers: w}
		arms = append(arms, oracleArm{eo: eo})
		if w > 1 {
			eo.ParKernels = 1
			arms = append(arms, oracleArm{eo: eo})
		}
	}
	return withUntraced(arms)
}

// workerArms builds the table at p = 64: one traced row per worker
// count above 1, the rows whose forks have many more servers than
// workers. What the sequential, untraced and morsel-off rows pin does
// not depend on p, so they run at p = 8 only.
func workerArms() []oracleArm {
	var arms []oracleArm
	for _, w := range oracleWorkerSet() {
		if w > 1 {
			arms = append(arms, oracleArm{eo: coverpack.ExecOptions{Workers: w}})
		}
	}
	return arms
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

// withUntraced appends an untraced copy of every row.
func withUntraced(arms []oracleArm) []oracleArm {
	for _, a := range arms[:len(arms):len(arms)] {
		a.untraced = true
		arms = append(arms, a)
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

// run executes one row. Spill rows run in a fresh directory that must
// still be empty when ExecuteOpts returns.
func (a oracleArm) run(t *testing.T, alg coverpack.Algorithm, in *coverpack.Instance, p int) (*runArtifacts, error) {
	t.Helper()
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
// query under each row, all rows concurrently. The reference runs
// first, alone, over freshly seeded arenas; the group subtest returns
// only when its rows are done, so no row overlaps the next reference.
func runOracle(t *testing.T, in *coverpack.Instance, p int, arms []oracleArm) {
	for _, alg := range oracleAlgorithms {
		seedArenas()
		ref, err := oracleReference.run(t, alg, in, p)
		if err != nil {
			// The algorithm rejects this query class (e.g. AlgTriangle on a
			// star); nothing to compare.
			continue
		}
		t.Run(alg.String(), func(t *testing.T) {
			for _, arm := range arms {
				t.Run(arm.String(), func(t *testing.T) {
					t.Parallel()
					label := in.Query.Name() + "/" + alg.String() + "/" + arm.String()
					got, err := arm.run(t, alg, in, p)
					if err != nil {
						t.Errorf("%s: run failed where the reference succeeded: %v", label, err)
						return
					}
					assertRunsAgree(t, label, ref, got)
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
// different branches (DistributeSpread placements) than uniform data.
func skewOracleQueries() []*hypergraph.Query {
	return []*hypergraph.Query{hypergraph.SemiJoinExample(), hypergraph.TriangleJoin()}
}

// TestDeterminismOracleCatalog sweeps the full paper catalog at a
// moderate instance size, at p = 8 and again, against its own
// reference, at the benchmark's p = 64, where Parallel trees are deep.
func TestDeterminismOracleCatalog(t *testing.T) {
	for _, entry := range coverpack.Catalog() {
		t.Run(entry.Query.Name(), func(t *testing.T) {
			in := coverpack.Uniform(entry.Query, 400, 500, 1)
			runOracle(t, in, 8, oracleArms())
			t.Run("p=64", func(t *testing.T) { runOracle(t, in, 64, workerArms()) })
		})
	}
}

// TestDeterminismOracleLarge re-runs a query subset on instances where
// the chunked exchange paths and Local's fork over the servers — not
// just the sequential fallbacks — are the ones being compared, at p = 8
// and again, against its own reference, at p = 64, where that fork, the
// only local one, has many more servers than workers.
func TestDeterminismOracleLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large instances skipped in -short mode")
	}
	for _, q := range largeOracleQueries() {
		t.Run(q.Name(), func(t *testing.T) {
			in := coverpack.Uniform(q, 1600, 2000, 7)
			runOracle(t, in, 8, oracleArms())
			t.Run("p=64", func(t *testing.T) { runOracle(t, in, 64, workerArms()) })
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
