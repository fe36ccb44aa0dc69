package coverpack

import (
	"io"

	"coverpack/internal/hashtab"
	"coverpack/internal/metrics"
	"coverpack/internal/mpc"
	"coverpack/internal/plan"
	"coverpack/internal/relation"
)

// This file re-exports the internal/metrics telemetry layer so library
// users can expose runtime metrics without importing internal packages,
// and folds the library's snapshot-style diagnostics (pool counters,
// Analyze memoization) into the default registry as callback series.
//
// Everything registered here is observation-only: the callbacks read
// counters their owners already keep, and nothing reads a series back
// into a run (hygiene_test.go's source scan pins this).

// MetricsRegistry is a named collection of counters, gauges and
// histograms with a Prometheus text exposition.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is the JSON form of a registry's current state.
type MetricsSnapshot = metrics.Snapshot

// DebugServer is a running telemetry HTTP endpoint (see
// StartDebugServer).
type DebugServer = metrics.DebugServer

// DefaultMetrics returns the process-wide registry every subsystem
// (simulator, plan cache, pools, scheduler, engine) reports into.
func DefaultMetrics() *MetricsRegistry { return metrics.Default }

// WriteMetricsText writes the default registry in Prometheus text
// exposition format (version 0.0.4).
func WriteMetricsText(w io.Writer) error { return metrics.Default.WritePrometheus(w) }

// TakeMetricsSnapshot captures the default registry as a JSON-ready
// snapshot.
func TakeMetricsSnapshot() MetricsSnapshot { return metrics.Default.Snapshot() }

// StartDebugServer serves /metrics, /metrics.json, /debug/vars and
// /debug/pprof/* for the default registry on addr (":0" picks a free
// port; query it with Addr). Close the returned server when done.
func StartDebugServer(addr string) (*DebugServer, error) {
	return metrics.StartDebugServer(addr, metrics.Default)
}

// The pool, Analyze-cache and compile-cache counters already exist as
// process-wide counters with snapshot accessors; rather than double-counting on the
// hot path, expose them as callback series read at scrape time.
func init() {
	pools := []struct {
		name string
		snap func() PoolStats
	}{
		{"arena", func() PoolStats { return relation.PoolStats() }},
		{"hashtab", func() PoolStats { return hashtab.PoolStats() }},
		{"sendlist", func() PoolStats { return mpc.SendPoolStats() }},
	}
	help := "Memory-pool recycling events by pool and operation."
	for _, p := range pools {
		snap := p.snap
		ops := []struct {
			op string
			fn func(PoolStats) uint64
		}{
			{"get", func(s PoolStats) uint64 { return s.Gets }},
			{"hit", func(s PoolStats) uint64 { return s.Hits }},
			{"miss", func(s PoolStats) uint64 { return s.Misses }},
			{"put", func(s PoolStats) uint64 { return s.Puts }},
			{"discard", func(s PoolStats) uint64 { return s.Discards }},
		}
		for _, o := range ops {
			fn := o.fn
			metrics.Default.NewCounterFunc("coverpack_pool_ops_total", help,
				func() float64 { return float64(fn(snap())) },
				metrics.Label{Key: "pool", Value: p.name},
				metrics.Label{Key: "op", Value: o.op})
			help = ""
		}
	}
	metrics.Default.NewCounterFunc("coverpack_analyze_cache_hits_total",
		"Analyze memoization hits (fractional-cover results reused by hypergraph).",
		func() float64 { h, _ := AnalyzeCacheStats(); return float64(h) })
	metrics.Default.NewCounterFunc("coverpack_analyze_cache_misses_total",
		"Analyze memoization misses (fractional covers computed fresh).",
		func() float64 { _, m := AnalyzeCacheStats(); return float64(m) })
	metrics.Default.NewCounterFunc("coverpack_plancompile_events_total",
		"Compiled-plan shape cache outcomes across the process.",
		func() float64 { return float64(plan.Snapshot().Hits) },
		metrics.Label{Key: "event", Value: "hit"})
	metrics.Default.NewCounterFunc("coverpack_plancompile_events_total", "",
		func() float64 { return float64(plan.Snapshot().Misses) },
		metrics.Label{Key: "event", Value: "miss"})
	metrics.Default.NewGaugeFunc("coverpack_plancompile_entries",
		"Query shapes currently retained by the compile cache.",
		func() float64 { return float64(plan.Snapshot().Entries) })
}
