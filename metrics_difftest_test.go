package coverpack_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"coverpack"
	"coverpack/internal/experiments"
)

// The telemetry no-perturbation oracle: every observable artifact — the
// Report, the span tree, the per-phase attribution, and a whole sweep
// table — must be identical with metrics enabled and disabled. Metrics
// are strictly observation-only; this is the difftest lever that pins
// it.

func TestMetricsOnOffReportsIdentical(t *testing.T) {
	in := coverpack.Uniform(coverpack.Catalog()[0].Query, 600, 3000, 1)
	for _, alg := range oracleAlgorithms {
		for _, workers := range []int{1, 4} {
			eo := coverpack.ExecOptions{Workers: workers}

			coverpack.SetMetricsEnabled(false)
			off, err := tracedExec(alg, in, 16, eo)
			coverpack.SetMetricsEnabled(true)
			if err != nil {
				continue // algorithm rejects this query class
			}
			before := coverpack.DefaultMetrics().Snapshot()
			on, err := tracedExec(alg, in, 16, eo)
			if err != nil {
				t.Fatalf("%s metrics-on run failed where metrics-off succeeded: %v", alg, err)
			}
			label := fmt.Sprintf("%s/workers=%d/metrics-on-vs-off", alg, workers)
			assertRunsAgree(t, label, off, on)

			// The enabled run must actually have recorded something.
			after := coverpack.DefaultMetrics().Snapshot()
			if counterValue(t, before, "coverpack_mpc_rounds_total") >= counterValue(t, after, "coverpack_mpc_rounds_total") {
				t.Errorf("%s: coverpack_mpc_rounds_total did not advance during an enabled run", label)
			}
		}
	}
}

// A full sweep table rendered with metrics off must be byte-identical
// to one rendered with metrics on.
func TestMetricsOnOffSweepTableIdentical(t *testing.T) {
	cfg := experiments.Config{Small: true, Workers: 2, RunWorkers: 2}
	render := func() string {
		table, err := experiments.Figure6(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(strings.Join(table.Header, "|") + "\n")
		for _, r := range table.Rows {
			b.WriteString(strings.Join(r, "|") + "\n")
		}
		return b.String()
	}
	coverpack.SetMetricsEnabled(false)
	off := render()
	coverpack.SetMetricsEnabled(true)
	on := render()
	if off != on {
		t.Errorf("sweep table diverged between metrics off and on:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
}

// A live scrape during normal library use must produce a valid
// exposition containing the migrated diagnostic surfaces.
func TestMetricsExpositionCoversSubsystems(t *testing.T) {
	in := coverpack.Uniform(coverpack.Catalog()[0].Query, 400, 2000, 1)
	if _, err := coverpack.ExecuteOpts(coverpack.AlgAcyclicOptimal, in, 16, coverpack.ExecOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := coverpack.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"coverpack_mpc_rounds_total",
		"coverpack_mpc_round_max_load",
		"coverpack_mpc_phase_seconds",
		"coverpack_plan_cache_events_total",
		"coverpack_pool_ops_total",
		"coverpack_sched_cells_total",
		"coverpack_engine_forks_total",
		"coverpack_analyze_cache_hits_total",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
}

// counterValue sums every series of one family in a snapshot.
func counterValue(t *testing.T, s coverpack.MetricsSnapshot, name string) float64 {
	t.Helper()
	var sum float64
	for _, m := range s.Metrics {
		if m.Name == name && m.Value != nil {
			sum += *m.Value
		}
	}
	return sum
}
