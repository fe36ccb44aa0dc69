package coverpack

import "coverpack/internal/lp"

// Streaming, out-of-core execution, the exchange-plan cache, the LP
// solve memo, the per-run compile-cache switch, the row-block kernels
// and the metrics switch are gone: every run executes the same
// exact-size local operators on resident arenas, writes no file, hashes
// every exchange whose input is not already partitioned on its key,
// compiles through the always-on shape cache, runs a local operator in
// parallel only across servers, and records metrics. The names below,
// with ExecOptions' NoPlanCache, Streaming, Spilling, SpillDir,
// SpillBudgetBytes, PlanCompile and ParKernels fields, have no effect
// and stay only because internal/bench reads them; they go with that
// harness code when the benchmark contract reopens (ROADMAP, Parked).

// SetMetricsEnabled does nothing: metrics always record, and nothing
// reads a series back into a run.
func SetMetricsEnabled(bool) {}

// StreamCounters is the former streaming-layer snapshot. Both fields
// always read zero.
type StreamCounters struct {
	Chunks uint64
	Spills uint64
}

// StreamStats returns zero counters.
func StreamStats() StreamCounters { return StreamCounters{} }

// StreamMode is the type of ExecOptions.Streaming.
type StreamMode int

// StreamDefault is the zero StreamMode, the only one left.
const StreamDefault StreamMode = 0

// SpillCounters is the former spill-layer snapshot. Every field always
// reads zero.
type SpillCounters struct {
	Parks        uint64
	PageIns      uint64
	BytesWritten uint64
	BytesRead    uint64
}

// SpillStats returns zero counters.
func SpillStats() SpillCounters { return SpillCounters{} }

// SpillRetainedPeakBytes returns 0.
func SpillRetainedPeakBytes() int64 { return 0 }

// ResetSpillRetainedPeak does nothing.
func ResetSpillRetainedPeak() {}

// SpillMode is the type of ExecOptions.Spilling.
type SpillMode int

// SpillOn is the SpillMode internal/bench sets; it selects nothing.
const SpillOn SpillMode = 1

// PlanCompileMode is the type of ExecOptions.PlanCompile.
type PlanCompileMode int

// PlanCompileDefault is the zero PlanCompileMode, the only one left.
const PlanCompileDefault PlanCompileMode = 0

// LPMemoStats is the former LP solve-memo snapshot. SimplexRuns counts
// simplex executions; the other fields always read zero.
type LPMemoStats = lp.MemoStats

// LPMemoCacheStats snapshots the simplex-run counter.
func LPMemoCacheStats() LPMemoStats { return lp.Memo() }

// ParKernelMode is the type of ExecOptions.ParKernels.
type ParKernelMode int

// ParKernelDefault is the zero ParKernelMode, the one internal/bench
// checks for.
const ParKernelDefault ParKernelMode = 0

// ParCounters is the former block-kernel snapshot. Both fields always
// read zero.
type ParCounters struct {
	KernelRuns uint64
	SeqCutoffs uint64
}

// ParStats returns zero counters.
func ParStats() ParCounters { return ParCounters{} }
