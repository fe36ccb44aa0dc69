package plan

import "coverpack/internal/metrics"

// Compile-cache telemetry, registered on the default registry.
// Observation-only: the counters mirror the Stats snapshot the cache
// already maintains, so metrics on/off cannot change what a lookup
// returns (the root no-perturbation oracle pins that contract).
var (
	mHits = metrics.Default.NewCounter("coverpack_plancompile_events_total",
		"Compiled-plan shape cache outcomes across the process.",
		metrics.Label{Key: "event", Value: "hit"})
	mMisses = metrics.Default.NewCounter("coverpack_plancompile_events_total",
		"", metrics.Label{Key: "event", Value: "miss"})

	mEntries = metrics.Default.NewGauge("coverpack_plancompile_entries",
		"Query shapes currently retained by the compile cache.")
)
