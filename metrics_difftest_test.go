package coverpack_test

import (
	"bytes"
	"strings"
	"testing"

	"coverpack"
)

// The plan-cache series are scrape-time reads of the shape cache's own
// counters, so they agree with PlanCompileCacheStats — across a reset
// too, which zeroes the one copy there is.
func TestPlanCompileSeriesMatchStats(t *testing.T) {
	defer coverpack.ResetPlanCompileCache()
	lookups := func() {
		for _, e := range coverpack.Catalog()[:4] {
			for i := 0; i < 2; i++ {
				if _, err := coverpack.CompileQuery(e.Query); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	lookups()
	coverpack.ResetPlanCompileCache()
	lookups()
	st := coverpack.PlanCompileCacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("PlanCompileCacheStats() = %+v, want hits, misses and entries", st)
	}
	snap := coverpack.TakeMetricsSnapshot()
	for _, c := range []struct {
		name, event string
		want        float64
	}{
		{"coverpack_plancompile_events_total", "hit", float64(st.Hits)},
		{"coverpack_plancompile_events_total", "miss", float64(st.Misses)},
		{"coverpack_plancompile_entries", "", float64(st.Entries)},
	} {
		got, found := 0.0, false
		for _, m := range snap.Metrics {
			if m.Name == c.name && m.Labels["event"] == c.event && m.Value != nil {
				got, found = *m.Value, true
			}
		}
		if !found || got != c.want {
			t.Errorf("%s{event=%q} = %v (found %v), PlanCompileCacheStats reads %v", c.name, c.event, got, found, c.want)
		}
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
