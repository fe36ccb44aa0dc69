package sched

import (
	"time"

	"coverpack/internal/metrics"
)

// Scheduler telemetry on the default registry, observation-only: a
// scrape mid-sweep shows how many cells are running and how long they
// take.
var (
	mSchedRuns = metrics.Default.NewCounter("coverpack_sched_runs_total",
		"Sweep-scheduler Run invocations.")
	mSchedCells = metrics.Default.NewCounter("coverpack_sched_cells_total",
		"Experiment cells submitted to the sweep scheduler.")
	mSchedRunning = metrics.Default.NewGauge("coverpack_sched_running_cells",
		"Cells currently executing across all scheduler Runs.")
	mSchedCellSeconds = metrics.Default.NewHistogram("coverpack_sched_cell_seconds",
		"Wall-clock seconds per experiment cell.",
		metrics.ExponentialBuckets(1e-4, 10, 8))
)

// runCell runs one cell under the running-cells gauge and times it into
// the cell-seconds histogram.
func runCell(cell func() error) error {
	mSchedRunning.Add(1)
	defer mSchedRunning.Add(-1)
	start := time.Now()
	err := cell()
	mSchedCellSeconds.Observe(time.Since(start).Seconds())
	return err
}
