package bench

import (
	"io"
	"runtime"
	"time"

	"coverpack"
	"coverpack/internal/trace"
)

// Config sizes one run of one workload.
type Config struct {
	Seed uint64
	// SpillDir is the bench-owned directory spill_tight parks into.
	SpillDir string
	// Scale divides the workload sizes: 1 in the benchmark, 10 in the
	// smoke test.
	Scale int
	// Passes and Duration say how long the run measures: whole passes
	// (rounds of the traced run) until at least Passes have run and
	// Duration has gone by. The full benchmark fixes Passes, so that
	// every count repeats exactly; a driver fixes Duration.
	Passes   int
	Duration time.Duration
	// Setups is how often set-up is repeated; setup_s is the median.
	Setups int
	// KernelReps is how often each layer kernel is repeated; its
	// value is the median.
	KernelReps int
}

// Result is the outcome of one run of one workload.
type Result struct {
	// PassMs is the wall time of every measured pass (plain pass of the
	// traced run): the samples behind pass_ms_p50 and pass_ms_p80.
	PassMs []float64
	// Attempted and Failed count ops over set-up and measurement.
	Attempted, Failed int
	Failures          []string
	// SeqFallback is set when the workload asked for workers and the
	// engine ran sequentially (one core): its wall times are then not
	// parallel numbers.
	SeqFallback bool
	Metrics     map[string]float64
}

// Correct reports that every op ran and produced the expected output.
func (r *Result) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// FailShare is failed ops over attempted ops.
func (r *Result) FailShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

func (r *Result) book(s *Session) {
	r.Attempted += s.Attempted
	r.Failed += s.Failed
	r.Failures = append(r.Failures, s.Failures...)
	s.Attempted, s.Failed, s.Failures = 0, 0, nil
}

// EndToEnd runs the workload as its users do — one client, one
// ExecuteOpts call after the other, no recorder, metrics at their
// default — and returns the end-to-end metrics, all as measured.
func EndToEnd(w Workload, cfg Config) (*Result, error) {
	res := &Result{}
	var s *Session
	setups := make([]float64, cfg.Setups)
	for i := range setups {
		s = nil // the previous set-up's instances are garbage now
		var st SetupTimes
		var err error
		if s, st, err = Setup(w, cfg.SpillDir, cfg.Seed, cfg.Scale); err != nil {
			return nil, err
		}
		res.book(s)
		setups[i] = st.Total.Seconds()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	var wall time.Duration
	for start := time.Now(); len(res.PassMs) < cfg.Passes || time.Since(start) < cfg.Duration; {
		d := s.Pass(execPlain, nil)
		wall += d
		res.PassMs = append(res.PassMs, ms(d))
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.book(s)

	n := float64(len(res.PassMs))
	res.SeqFallback = s.SeqFallback()
	loadRatio, rounds := s.LoadRatio()
	res.Metrics = map[string]float64{
		"setup_s":            Median(setups),
		"pass_ms_p50":        Median(res.PassMs),
		"pass_ms_p80":        Percentile(res.PassMs, 80),
		"tuples_per_s":       float64(s.Tuples) * n / wall.Seconds(),
		"cpu_ms_per_pass":    ms(cpu) / n,
		"allocs_per_pass":    float64(m1.Mallocs-m0.Mallocs) / n,
		"alloc_mib_per_pass": float64(m1.TotalAlloc-m0.TotalAlloc) / n / (1 << 20),
		"peak_rss_mib":       peakRSSMiB(),
		"load_ratio":         loadRatio,
		"rounds_per_pass":    float64(rounds),
		"ok_share":           1 - res.FailShare(),
	}
	return res, nil
}

// Traced is the traced run: it never feeds an end-to-end metric. Each
// round runs four passes — plain (ExecuteOpts as in EndToEnd, with the
// per-op clock and the counter readings), staged (the bench's mirror
// of ExecuteOpts, clocked stage by stage), recorded (ExecuteOpts under
// the clocked recorder at Workers=1) and metrics-off — so that the
// ratios between them see the same machine conditions. The layer
// kernels run after the last round. Spans go to out as JSONL when it is
// non-nil.
func Traced(w Workload, cfg Config, out io.Writer) (*Result, error) {
	res := &Result{Metrics: map[string]float64{}}
	s, st, err := Setup(w, cfg.SpillDir, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	res.book(s)

	nc := len(s.Cases)
	t := &tracedRun{s: s, rec: NewRecorder(out != nil), ops: make([]time.Duration, nc), plainOpMs: make([][]float64, nc),
		algRun: map[string]time.Duration{}}
	for _, c := range s.Cases {
		t.workers = max(t.workers, c.Opts.Workers, 1)
	}
	coverpack.ResetSpillRetainedPeak()
	// Under a Duration the rounds get three fifths of it, the kernels
	// the rest.
	budget := cfg.Duration * 3 / 5
	for start := time.Now(); len(t.plainMs) < cfg.Passes || time.Since(start) < budget; {
		t.round()
	}
	res.book(s)
	res.PassMs = t.plainMs
	res.SeqFallback = s.SeqFallback()

	m := res.Metrics
	for _, pm := range PerLayerMetrics() {
		m[pm.Name] = 0
	}
	t.report(m)
	m["workload.gen_ms"] = ms(st.Gen)
	if err := Kernels(s, cfg, m); err != nil {
		return nil, err
	}
	if out != nil {
		if err := t.rec.WriteJSONL(out); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedRun accumulates what the rounds of a traced run measure.
type tracedRun struct {
	s   *Session
	rec *Recorder
	ops []time.Duration // per-op clocks of the latest plain pass
	// workers is the largest worker count a case of the workload asks for.
	workers int

	// Pass times by kind of pass, one per round, and the plain passes'
	// op times by case. seqMs is the plain pass at Workers=1, the
	// recorded pass's counterpart; on a sequential workload that is the
	// plain pass itself.
	plainMs, stagedMs, recordedMs, seqMs, metricsOffMs []float64
	plainOpMs                                          [][]float64

	stages    Stages
	algRun    map[string]time.Duration // run stage by algorithm package
	cnt       counters
	ccnt      compileCounters
	planStats coverpack.CacheStats

	gcCycles                 uint32
	gcPauseNs, heapInusePeak uint64
}

// round runs one pass of each kind.
func (t *tracedRun) round() {
	s := t.s
	pass := len(t.plainMs)
	// Plain pass, with counter readings around it and, for the compile
	// caches that a cold op resets, around each op.
	var m0, m1 runtime.MemStats
	before := readCounters()
	runtime.ReadMemStats(&m0)
	total := s.Pass(func(c *Case) (*coverpack.Report, error) {
		cb := readCompileCounters()
		if c.Cold {
			cb = compileCounters{}
		}
		var ps coverpack.CacheStats
		rep, err := c.Exec(func(eo *coverpack.ExecOptions) { eo.PlanStats = &ps })
		t.ccnt.add(cb, readCompileCounters())
		t.planStats.Hits += ps.Hits
		t.planStats.Misses += ps.Misses
		t.planStats.PartitionHits += ps.PartitionHits
		return rep, err
	}, t.ops)
	runtime.ReadMemStats(&m1)
	t.cnt.add(before, readCounters())
	t.plainMs = append(t.plainMs, ms(total))
	for i, d := range t.ops {
		t.plainOpMs[i] = append(t.plainOpMs[i], ms(d))
	}
	t.gcCycles += m1.NumGC - m0.NumGC
	t.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	t.heapInusePeak = max(t.heapInusePeak, m1.HeapInuse)

	t.stagedMs = append(t.stagedMs, ms(s.Pass(func(c *Case) (*coverpack.Report, error) {
		rep, st, err := c.Staged()
		t.stages.Compile += st.Compile
		t.stages.Cluster += st.Cluster
		t.stages.Run += st.Run
		t.stages.Release += st.Release
		if err == nil {
			t.algRun[AlgLayer(rep.Algorithm)] += st.Run
		}
		return rep, err
	}, nil)))

	// The recorder sits on a Workers=1 run (see Recorder), so what it
	// costs is read against a plain pass at Workers=1.
	seq := func(eo *coverpack.ExecOptions) { eo.Workers = 1 }
	t.recordedMs = append(t.recordedMs, ms(s.Pass(func(c *Case) (*coverpack.Report, error) {
		t.rec.BeginOp(pass, c.Name)
		defer t.rec.EndOp()
		return c.Exec(func(eo *coverpack.ExecOptions) { seq(eo); eo.Recorder = t.rec })
	}, nil)))
	seqTotal := total // a sequential workload's plain pass is that pass
	if t.workers > 1 {
		seqTotal = s.Pass(func(c *Case) (*coverpack.Report, error) { return c.Exec(seq) }, nil)
	}
	t.seqMs = append(t.seqMs, ms(seqTotal))

	coverpack.SetMetricsEnabled(false)
	t.metricsOffMs = append(t.metricsOffMs, ms(s.Pass(execPlain, nil)))
	coverpack.SetMetricsEnabled(true)
}

// medianRatio is the median over rounds of a[i]/b[i]: the two passes of
// one round ran within a second of each other, so their ratio is
// steadier than the ratio of two medians.
func medianRatio(a, b []float64) float64 {
	rs := make([]float64, len(a))
	for i := range a {
		rs[i] = ratio(a[i], b[i])
	}
	return Median(rs)
}

// report turns the accumulated readings into per-layer metrics: times
// per pass, counts per plain pass.
func (t *tracedRun) report(m map[string]float64) {
	n := float64(len(t.plainMs))
	hitRate := func(hits, lookups uint64) float64 { return ratio(float64(hits), float64(lookups)) }

	// Staged op.
	m["coverpack.compile_ms"] = ms(t.stages.Compile) / n
	m["coverpack.cluster_ms"] = ms(t.stages.Cluster) / n
	m["coverpack.run_ms"] = ms(t.stages.Run) / n
	m["coverpack.release_ms"] = ms(t.stages.Release) / n
	m["coverpack.stage_cover"] = medianRatio(t.stagedMs, t.plainMs)
	for layer, d := range t.algRun {
		m[layer+".run_ms"] = ms(d) / n
	}
	for i, c := range t.s.Cases {
		// Catalog cases have no per-op metric.
		key := "case." + c.Name + ".ms_p50"
		if _, ok := m[key]; ok {
			m[key] = Median(t.plainOpMs[i])
		}
	}

	// Clocked recorder.
	rec := t.rec
	for _, p := range PhaseNames() {
		m["phase."+p+"_ms"] = ms(rec.Self[p]) / n
	}
	var units int64
	for op := trace.Op(0); int(op) < numOps; op++ {
		m["mpc."+opKey(op)+".rounds"] = float64(rec.Rounds[op]) / n
		m["mpc."+opKey(op)+".units"] = float64(rec.Units[op]) / n
		units += rec.Units[op]
	}
	m["mpc.units_per_tuple"] = ratio(float64(units)/n, float64(t.s.Tuples))
	m["trace.spans"] = float64(rec.Spans) / n
	m["trace.events"] = float64(rec.Events) / n
	m["trace.overhead_ratio"] = medianRatio(t.recordedMs, t.seqMs)
	m["metrics.overhead_ratio"] = medianRatio(t.plainMs, t.metricsOffMs)

	// Counter readings.
	cnt, ccnt := &t.cnt, &t.ccnt
	m["mpc.plan_cache.hits"] = float64(t.planStats.Hits) / n
	m["mpc.plan_cache.misses"] = float64(t.planStats.Misses) / n
	m["mpc.plan_cache.partition_hits"] = float64(t.planStats.PartitionHits) / n
	m["mpc.plan_cache.hit_rate"] = hitRate(t.planStats.Hits+t.planStats.PartitionHits, t.planStats.Lookups())
	m["mpc.sendpool.gets"] = float64(cnt.send.Gets) / n
	m["mpc.sendpool.hit_rate"] = cnt.send.HitRate()
	m["mpc.engine.forks"] = cnt.forks / n
	m["mpc.engine.seq_fallbacks"] = cnt.seqFallbacks / n
	m["mpc.morsel.ranges"] = cnt.ranges / n
	m["mpc.morsel.steals"] = cnt.steals / n
	var plainWall float64
	for _, p := range t.plainMs {
		plainWall += p / 1000
	}
	m["mpc.morsel.busy_share"] = ratio(cnt.busySeconds, plainWall*float64(t.workers))
	m["relation.pool.gets"] = float64(cnt.arena.Gets) / n
	m["relation.pool.hit_rate"] = cnt.arena.HitRate()
	m["relation.stream.chunks"] = float64(cnt.stream.Chunks) / n
	m["relation.stream.spills"] = float64(cnt.stream.Spills) / n
	m["relation.par.kernels"] = float64(cnt.par.KernelRuns) / n
	m["relation.par.seq_cutoffs"] = float64(cnt.par.SeqCutoffs) / n
	m["hashtab.pool.hit_rate"] = cnt.hash.HitRate()
	m["lp.memo.simplex_runs"] = float64(ccnt.lp.SimplexRuns) / n
	m["lp.memo.hit_rate"] = hitRate(ccnt.lp.Hits, ccnt.lp.Hits+ccnt.lp.Misses)
	m["plan.shape.hits"] = float64(ccnt.shape.Hits) / n
	m["plan.shape.misses"] = float64(ccnt.shape.Misses) / n
	m["plan.shape.iso_hits"] = float64(ccnt.shape.IsoHits) / n
	m["coverpack.analyze.hit_rate"] = hitRate(ccnt.analyzeHits, ccnt.analyzeHits+ccnt.analyzeMisses)

	// Spilling (spill_tight).
	m["mpc.spill.retained_peak_bytes"] = float64(coverpack.SpillRetainedPeakBytes())
	m["relation.spill.parks"] = float64(cnt.spill.Parks) / n
	m["relation.spill.pageins"] = float64(cnt.spill.PageIns) / n
	m["relation.spill.bytes_written"] = float64(cnt.spill.BytesWritten) / n
	m["relation.spill.bytes_read"] = float64(cnt.spill.BytesRead) / n
	var spilledInput int64
	for _, c := range t.s.Cases {
		if c.Spilled {
			for _, r := range c.In.Relations {
				spilledInput += int64(r.Len()) * int64(r.Schema().Len()) * 8
			}
		}
	}
	m["relation.spill.write_amp"] = ratio(float64(cnt.spill.BytesWritten)/n, float64(spilledInput))

	m["runtime.gc_cycles_per_pass"] = float64(t.gcCycles) / n
	m["runtime.gc_pause_ms_per_pass"] = float64(t.gcPauseNs) / 1e6 / n
	m["runtime.heap_inuse_peak_mib"] = float64(t.heapInusePeak) / (1 << 20)
}
