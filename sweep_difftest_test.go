package coverpack_test

import (
	"fmt"
	"testing"

	"coverpack/internal/experiments"
)

// The run-level determinism oracle: the sweep scheduler executes
// experiment cells concurrently, and the memory pools recycle arenas
// across those runs — neither may change a single byte of any table.
// The reference is the sequential sweep (the pre-scheduler code path);
// every run-workers arm must render the exact same tables.

// renderTables flattens tables into one comparable byte string.
func renderTables(tables []experiments.Table) string {
	s := ""
	for _, t := range tables {
		s += t.Title + "\n"
		s += fmt.Sprintf("%q\n", t.Header)
		for _, r := range t.Rows {
			s += fmt.Sprintf("%q\n", r)
		}
	}
	return s
}

// sweepOnce runs the scheduled sweep subset under one configuration:
// the full Table 1 plus one figure sweep (Figure 6) — together they
// cover ExecuteOpts cells, MinLoad cells, and exponent-fit assembly.
func sweepOnce(t *testing.T, runWorkers int) string {
	t.Helper()
	cfg := experiments.Config{Small: true, RunWorkers: runWorkers}
	tables, err := experiments.Table1(cfg)
	if err != nil {
		t.Fatalf("table1 (runWorkers=%d): %v", runWorkers, err)
	}
	fig, err := experiments.Figure6(cfg)
	if err != nil {
		t.Fatalf("figure6 (runWorkers=%d): %v", runWorkers, err)
	}
	return renderTables(append(tables, fig))
}

func TestScheduledSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep matrix skipped in -short mode")
	}
	seedArenas()
	ref := sweepOnce(t, 1)
	for _, rw := range []int{1, 4, 8} {
		if got := sweepOnce(t, rw); got != ref {
			t.Errorf("runWorkers=%d: rendered tables diverged from the sequential reference\nref:\n%s\ngot:\n%s",
				rw, ref, got)
		}
	}
}
