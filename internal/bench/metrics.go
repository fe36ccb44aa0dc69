package bench

import "coverpack/internal/trace"

// Metric is one named number the benchmark prints. BENCHMARK.json lists
// exactly these (bench_test pins that).
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may get worse before it is a regression; 0 on per-layer
	// metrics, which have no bound.
	Bound float64
	// Exact marks a metric that two runs of the same code on the same
	// seed must reproduce bit for bit: it moves only when the algorithm
	// changes.
	Exact bool
}

// EndToEndMetrics lists the end-to-end metrics, the same on every
// workload. ok_share is 1 − fail_share: a metric with a bound may never
// read 0, so the share of failed ops is listed from its other side
// (the runner prints fail_share too).
func EndToEndMetrics() []Metric {
	return []Metric{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "pass_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "pass_ms_p80", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "tuples_per_s", Unit: "tuples/s", Better: "higher", Bound: 0.25},
		{Name: "cpu_ms_per_pass", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "allocs_per_pass", Unit: "count", Better: "lower", Bound: 0.01},
		{Name: "alloc_mib_per_pass", Unit: "MiB", Better: "lower", Bound: 0.02},
		{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
		{Name: "load_ratio", Unit: "ratio", Better: "lower", Bound: 0.05, Exact: true},
		{Name: "rounds_per_pass", Unit: "count", Better: "lower", Bound: 0.01, Exact: true},
		{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.001, Exact: true},
	}
}

// CaseNames lists the cases that have a case.<name>.ms_p50 metric.
func CaseNames() []string {
	return []string{"line3_agm", "path4_agm", "figure4_hard", "semijoin_hub", "stardual_hard",
		"semijoin_hub_skew", "triangle_matching", "yannakakis_line3", "triangle_hub"}
}

// opKey names a trace.Op inside the mpc.<op>.rounds / .units metrics.
func opKey(op trace.Op) string {
	return [numOps]string{"hash_partition", "broadcast", "gather", "route", "send_to", "distribute", "control"}[op]
}

// PerLayerMetrics lists the per-layer metrics of the traced run; the prefix
// before the first dot is the layer (module) the number belongs to.
func PerLayerMetrics() []Metric {
	var out []Metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, Metric{Name: n, Unit: unit, Better: better})
		}
	}
	// Staged op.
	add("ms", "lower", "coverpack.compile_ms", "coverpack.cluster_ms", "coverpack.run_ms", "coverpack.release_ms")
	add("ratio", "lower", "coverpack.stage_cover")
	add("ms", "lower", "core.run_ms", "hypercube.run_ms", "yannakakis.run_ms", "cyclic.run_ms")
	for _, c := range CaseNames() {
		add("ms", "lower", "case."+c+".ms_p50")
	}
	// Clocked recorder.
	for _, p := range PhaseNames() {
		add("ms", "lower", "phase."+p+"_ms")
	}
	for op := trace.Op(0); int(op) < numOps; op++ {
		add("count", "lower", "mpc."+opKey(op)+".rounds", "mpc."+opKey(op)+".units")
	}
	add("ratio", "lower", "mpc.units_per_tuple")
	// Layer kernels and counter snapshots, layer by layer.
	add("ns", "lower", "mpc.scatter_ns_per_tuple", "mpc.hash_partition_ns_per_tuple", "mpc.hash_partition_replay_ns_per_tuple",
		"mpc.broadcast_ns_per_unit", "mpc.gather_ns_per_tuple", "mpc.route_ns_per_unit")
	add("us", "lower", "mpc.new_cluster_us")
	add("count", "higher", "mpc.plan_cache.hits")
	add("count", "lower", "mpc.plan_cache.misses")
	add("count", "higher", "mpc.plan_cache.partition_hits")
	add("ratio", "higher", "mpc.plan_cache.hit_rate")
	add("count", "lower", "mpc.sendpool.gets")
	add("ratio", "higher", "mpc.sendpool.hit_rate")
	add("count", "higher", "mpc.engine.forks")
	add("count", "lower", "mpc.engine.seq_fallbacks")
	add("count", "higher", "mpc.morsel.ranges", "mpc.morsel.steals")
	add("ratio", "higher", "mpc.morsel.busy_share")
	add("bytes", "lower", "mpc.spill.retained_peak_bytes")
	add("ns", "lower", "relation.join_ns_per_out", "relation.stream_join_ns_per_out", "relation.merge_join_ns_per_out",
		"relation.semijoin_ns_per_tuple", "relation.dedup_ns_per_tuple", "relation.sort_by_ns_per_tuple",
		"relation.join_par_ns_per_out", "relation.sort_by_par_ns_per_tuple")
	add("ms", "lower", "relation.join_size_ms")
	add("count", "lower", "relation.pool.gets")
	add("ratio", "higher", "relation.pool.hit_rate")
	add("count", "lower", "relation.stream.chunks", "relation.stream.spills")
	add("count", "higher", "relation.par.kernels")
	add("count", "lower", "relation.par.seq_cutoffs", "relation.spill.parks", "relation.spill.pageins")
	add("bytes", "lower", "relation.spill.bytes_written", "relation.spill.bytes_read")
	add("ratio", "lower", "relation.spill.write_amp")
	add("ns", "lower", "hashtab.insert_ns", "hashtab.find_ns")
	add("ratio", "higher", "hashtab.pool.hit_rate")
	add("ms", "lower", "primitives.reduce_by_key_ms", "primitives.semijoin_ms", "primitives.sort_ms",
		"primitives.degrees_ms", "primitives.join_count_ms")
	add("us", "lower", "lp.solve_us")
	add("count", "lower", "lp.memo.simplex_runs")
	add("ratio", "higher", "lp.memo.hit_rate")
	add("us", "lower", "fractional.compute_us", "fractional.psi_us", "hypergraph.canon_us", "hypergraph.gyo_us")
	add("ns", "lower", "plan.for_hit_ns")
	add("count", "higher", "plan.shape.hits")
	add("count", "lower", "plan.shape.misses")
	add("count", "higher", "plan.shape.iso_hits")
	add("us", "lower", "coverpack.compile_cold_us")
	add("ns", "lower", "coverpack.compile_warm_ns")
	add("us", "lower", "coverpack.compile_iso_us")
	add("ratio", "higher", "coverpack.analyze.hit_rate")
	add("ms", "lower", "workload.gen_ms")
	// Observability cost and the runtime.
	add("ratio", "lower", "trace.overhead_ratio")
	add("count", "lower", "trace.spans", "trace.events")
	add("ratio", "lower", "metrics.overhead_ratio")
	add("count", "lower", "runtime.gc_cycles_per_pass")
	add("ms", "lower", "runtime.gc_pause_ms_per_pass")
	add("MiB", "lower", "runtime.heap_inuse_peak_mib")
	return out
}
