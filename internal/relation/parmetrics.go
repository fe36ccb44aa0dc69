package relation

import (
	"sync/atomic"

	"coverpack/internal/metrics"
)

// Block-kernel telemetry, following the streaming layer's pattern:
// hot-path counts land in process-wide atomics and reach the default
// registry as callback series read at scrape time, staying available
// to tests through ParStats even with metrics disabled.

var (
	parKernelRuns atomic.Uint64
	parSeqCutoffs atomic.Uint64
)

// ParCounters snapshots the parallel-kernel counters.
type ParCounters struct {
	// KernelRuns is the number of kernel runs over several blocks.
	KernelRuns uint64
	// SeqCutoffs is the number of kernel runs on a multi-worker Forker
	// that ran one block because the input was below ParCutoff.
	SeqCutoffs uint64
}

// ParStats snapshots the parallel-kernel counters.
func ParStats() ParCounters {
	return ParCounters{
		KernelRuns: parKernelRuns.Load(),
		SeqCutoffs: parSeqCutoffs.Load(),
	}
}

// ResetParStats zeroes the parallel-kernel counters (test/bench seam).
func ResetParStats() {
	parKernelRuns.Store(0)
	parSeqCutoffs.Store(0)
}

func init() {
	metrics.Default.NewCounterFunc("coverpack_par_kernels_total",
		"Relation kernel runs over several row blocks.",
		func() float64 { return float64(parKernelRuns.Load()) })
	metrics.Default.NewCounterFunc("coverpack_morsel_seq_cutoffs_total",
		"Relation kernel runs held to one row block by the cost cutoff.",
		func() float64 { return float64(parSeqCutoffs.Load()) })
}
