package bench

import "coverpack"

// counters is one reading of the engine's public cumulative counters.
// The traced run reads them around every plain pass and reports the
// differences per pass; nothing here resets an engine counter.
type counters struct {
	arena, hash, send   coverpack.PoolStats
	stream              coverpack.StreamCounters
	par                 coverpack.ParCounters
	spill               coverpack.SpillCounters
	forks, seqFallbacks float64
	ranges, steals      float64
	busySeconds         float64
}

func readCounters() counters {
	c := counters{
		arena: coverpack.ArenaPoolStats(), hash: coverpack.HashPoolStats(), send: coverpack.SendPoolStats(),
		stream: coverpack.StreamStats(), par: coverpack.ParStats(), spill: coverpack.SpillStats(),
	}
	for _, sm := range coverpack.TakeMetricsSnapshot().Metrics {
		switch sm.Name {
		case "coverpack_engine_forks_total":
			c.forks = *sm.Value
		case "coverpack_engine_seq_fallbacks_total":
			c.seqFallbacks = *sm.Value
		case "coverpack_morsel_ranges_total":
			c.ranges = *sm.Value
		case "coverpack_morsel_steals_total":
			c.steals = *sm.Value
		case "coverpack_morsel_worker_busy_seconds":
			c.busySeconds = *sm.Sum
		}
	}
	return c
}

// add accumulates after − before into c.
func (c *counters) add(before, after counters) {
	pool := func(dst *coverpack.PoolStats, b, a coverpack.PoolStats) {
		dst.Gets += a.Gets - b.Gets
		dst.Hits += a.Hits - b.Hits
	}
	pool(&c.arena, before.arena, after.arena)
	pool(&c.hash, before.hash, after.hash)
	pool(&c.send, before.send, after.send)
	c.stream.Chunks += after.stream.Chunks - before.stream.Chunks
	c.stream.Spills += after.stream.Spills - before.stream.Spills
	c.par.KernelRuns += after.par.KernelRuns - before.par.KernelRuns
	c.par.SeqCutoffs += after.par.SeqCutoffs - before.par.SeqCutoffs
	c.spill.Parks += after.spill.Parks - before.spill.Parks
	c.spill.PageIns += after.spill.PageIns - before.spill.PageIns
	c.spill.BytesWritten += after.spill.BytesWritten - before.spill.BytesWritten
	c.spill.BytesRead += after.spill.BytesRead - before.spill.BytesRead
	c.forks += after.forks - before.forks
	c.seqFallbacks += after.seqFallbacks - before.seqFallbacks
	c.ranges += after.ranges - before.ranges
	c.steals += after.steals - before.steals
	c.busySeconds += after.busySeconds - before.busySeconds
}

// compileCounters is one reading of the compile-side caches. A cold
// case zeroes them at the start of its op, so they are read per op and
// a cold op's difference is its after-reading alone.
type compileCounters struct {
	shape                      coverpack.PlanCompileStats
	lp                         coverpack.LPMemoStats
	analyzeHits, analyzeMisses uint64
}

func readCompileCounters() compileCounters {
	c := compileCounters{shape: coverpack.PlanCompileCacheStats(), lp: coverpack.LPMemoCacheStats()}
	c.analyzeHits, c.analyzeMisses = coverpack.AnalyzeCacheStats()
	return c
}

func (c *compileCounters) add(before, after compileCounters) {
	c.shape.Hits += after.shape.Hits - before.shape.Hits
	c.shape.Misses += after.shape.Misses - before.shape.Misses
	c.shape.IsoHits += after.shape.IsoHits - before.shape.IsoHits
	c.lp.Hits += after.lp.Hits - before.lp.Hits
	c.lp.Misses += after.lp.Misses - before.lp.Misses
	c.lp.SimplexRuns += after.lp.SimplexRuns - before.lp.SimplexRuns
	c.analyzeHits += after.analyzeHits - before.analyzeHits
	c.analyzeMisses += after.analyzeMisses - before.analyzeMisses
}
