package coverpack

import "coverpack/internal/relation"

// This file re-exports the intra-operator parallelism layer: the
// morsel-parallel relation kernels (sort, merge, dedup, semi-join,
// join, reduce) that fan local operator work out over the cluster's
// worker pool. Parallel kernels are a pure wall-clock lever — every
// kernel's output is byte-identical to its sequential reference at any
// worker count (the difftest oracle runs the full matrix both ways to
// pin it), and at Workers <= 1 they never engage.

// ParCounters snapshots the parallel-kernel diagnostics: kernels that
// took a parallel path, and parallel-eligible kernels that stayed
// sequential under the cost cutoff. Diagnostics only — never part of a
// measured result.
type ParCounters = relation.ParCounters

// ParStats snapshots the parallel-kernel counters.
func ParStats() ParCounters { return relation.ParStats() }

// ResetParStats zeroes the parallel-kernel counters (test and
// benchmark seam).
func ResetParStats() { relation.ResetParStats() }

// ParKernelMode selects the parallel-kernel behavior of one execution
// (see ExecOptions.ParKernels).
type ParKernelMode int

const (
	// ParKernelDefault allows the parallel kernel paths (they still
	// require Workers > 1 to engage). The zero value, so plain
	// ExecOptions literals keep parallel kernels on.
	ParKernelDefault ParKernelMode = iota
	// ParKernelOff runs every local operator through its sequential
	// reference implementation even on parallel clusters — the
	// determinism oracle's reference arm.
	ParKernelOff
)
