package mpc

import (
	"time"

	"coverpack/internal/metrics"
)

// Process-wide telemetry of the simulator, registered on the default
// registry. Everything here is observation-only: the counters mirror
// quantities the simulator already computes (per-cluster Stats are
// untouched), and nothing here is read back, so recording cannot change
// a Report, a trace, or a table (the root source scan pins that).
//
// The per-round load histograms are the live form of the paper's
// central quantity: mRoundMaxLoad observes, for every charged exchange
// anywhere in the process, the maximum per-server received units — the
// L whose bound is O(N/p^{1/ρ}) — while mRoundUnits observes the
// round's total communication volume. Scraping /metrics mid-sweep
// therefore yields the load distribution as it accumulates, not a
// post-hoc trace export.
var (
	mRounds = metrics.Default.NewCounter("coverpack_mpc_rounds_total",
		"Charged exchange rounds across all clusters in this process.")
	mUnits = metrics.Default.NewCounter("coverpack_mpc_units_total",
		"Total communication units charged across all clusters.")
	mRoundMaxLoad = metrics.Default.NewHistogram("coverpack_mpc_round_max_load",
		"Per-exchange maximum per-server received units (the paper's per-round load L).",
		metrics.ExponentialBuckets(1, 4, 12))
	mRoundUnits = metrics.Default.NewHistogram("coverpack_mpc_round_units",
		"Per-exchange total received units (communication volume of one round).",
		metrics.ExponentialBuckets(1, 4, 14))

	mPhaseSeconds = metrics.Default.NewHistogramVec("coverpack_mpc_phase_seconds",
		"Wall-clock seconds spent inside named algorithm phases (inclusive of nested phases).",
		metrics.ExponentialBuckets(1e-6, 10, 8), "phase")

	mEngineForks = metrics.Default.NewCounter("coverpack_engine_forks_total",
		"Parallel fan-outs issued by the execution engine.")
	mEngineForkTasks = metrics.Default.NewCounter("coverpack_engine_fork_tasks_total",
		"Tasks executed across all engine fan-outs.")
	mEngineForkGoroutines = metrics.Default.NewCounter("coverpack_engine_fork_goroutines_total",
		"Extra goroutines admitted by the engine token pool (utilization = goroutines / (forks × (workers−1))).")
	mEngineSeqFallbacks = metrics.Default.NewCounter("coverpack_engine_seq_fallbacks_total",
		"Clusters that requested WithWorkers but fell back to sequential execution (GOMAXPROCS=1).")
)

// observeRound records one charged exchange's load shape. max and total
// are the values chargeRound already computed for Stats.
func observeRound(max int, total int64) {
	mRounds.Inc()
	mUnits.Add(uint64(total))
	mRoundMaxLoad.Observe(float64(max))
	mRoundUnits.Observe(float64(total))
}

// phaseTimer is the wall-clock timer of one named phase: startPhase
// reads the clock, and observe records the elapsed time into the
// phase's histogram. It is a value, so timing a span allocates nothing.
type phaseTimer struct {
	name  string
	start time.Time
}

func startPhase(name string) phaseTimer { return phaseTimer{name: name, start: time.Now()} }

func (t phaseTimer) observe() {
	mPhaseSeconds.With(t.name).Observe(time.Since(t.start).Seconds())
}
