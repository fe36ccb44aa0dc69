package coverpack_test

import (
	"fmt"
	"reflect"
	"testing"

	"coverpack"
	"coverpack/internal/experiments"
)

// The run-level determinism oracle: the sweep scheduler executes
// experiment cells concurrently, and the memory pools recycle arenas
// across those runs — neither may change a single byte of any table.
// The reference is the sequential, pooling-off sweep (the
// pre-scheduler code path); every (run-workers × pooling) arm must
// render the exact same tables.

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
func sweepOnce(t *testing.T, runWorkers int, pool bool) string {
	t.Helper()
	coverpack.SetPooling(pool)
	defer coverpack.SetPooling(true)
	cfg := experiments.Config{Small: true, RunWorkers: runWorkers}
	tables, err := experiments.Table1(cfg)
	if err != nil {
		t.Fatalf("table1 (runWorkers=%d pool=%v): %v", runWorkers, pool, err)
	}
	fig, err := experiments.Figure6(cfg)
	if err != nil {
		t.Fatalf("figure6 (runWorkers=%d pool=%v): %v", runWorkers, pool, err)
	}
	return renderTables(append(tables, fig))
}

func TestScheduledSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep matrix skipped in -short mode")
	}
	ref := sweepOnce(t, 1, false)
	for _, rw := range []int{1, 4, 8} {
		for _, pool := range []bool{false, true} {
			got := sweepOnce(t, rw, pool)
			if got != ref {
				t.Errorf("runWorkers=%d pool=%v: rendered tables diverged from sequential pool-off reference\nref:\n%s\ngot:\n%s",
					rw, pool, ref, got)
			}
		}
	}
}

// TestScheduledSweepBudgetIdentical pins that the admission gate only
// delays cells, never changes results: a budget small enough to force
// serialization and an unlimited budget render identical tables.
func TestScheduledSweepBudgetIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep matrix skipped in -short mode")
	}
	run := func(budget int64) []experiments.Table {
		t.Helper()
		tables, err := experiments.Table1(experiments.Config{Small: true, RunWorkers: 4, MemBudget: budget})
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		return tables
	}
	tight, unlimited := run(1), run(-1)
	if !reflect.DeepEqual(tight, unlimited) {
		t.Errorf("tables differ between tight and unlimited admission budgets")
	}
}
