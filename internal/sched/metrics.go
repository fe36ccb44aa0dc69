package sched

import (
	"time"

	"coverpack/internal/metrics"
)

// Scheduler telemetry on the default registry. Observation-only: Stats
// stays the artifact-facing record; these series are the live view of
// the same events, so a scrape mid-sweep shows gate pressure and
// budget occupancy as they happen.
var (
	mSchedRuns = metrics.Default.NewCounter("coverpack_sched_runs_total",
		"Sweep-scheduler Run invocations.")
	mSchedCells = metrics.Default.NewCounter("coverpack_sched_cells_total",
		"Experiment cells submitted to the sweep scheduler.")
	mSchedGateWaits = metrics.Default.NewCounter("coverpack_sched_gate_waits_total",
		"Cell admissions delayed by the memory-budget gate.")
	mSchedRunning = metrics.Default.NewGauge("coverpack_sched_running_cells",
		"Cells currently executing across all scheduler Runs.")
	mSchedInflight = metrics.Default.NewGauge("coverpack_sched_inflight_cost",
		"Summed admission-gate cost of currently executing cells.")
	mSchedCellSeconds = metrics.Default.NewHistogram("coverpack_sched_cell_seconds",
		"Wall-clock seconds per experiment cell.",
		metrics.ExponentialBuckets(1e-4, 10, 8))
)

// cellTimer mirrors mpc's spanTimer: nil when metrics are disabled.
func cellTimer() func() {
	if !metrics.Enabled() {
		return nil
	}
	start := time.Now()
	return func() { mSchedCellSeconds.Observe(time.Since(start).Seconds()) }
}
