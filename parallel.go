package coverpack

import "coverpack/internal/relation"

// This file re-exports the intra-operator parallelism layer: the
// relation kernels (sort, dedup, semi-join, join) run over ordered row
// blocks, several of them across the cluster's worker pool when the
// input is large enough. Running over several blocks is a pure
// wall-clock lever — a kernel's output is the same for any cut of its
// input (the difftest oracle runs the full matrix both ways to pin
// it), and at Workers <= 1 every kernel runs one block inline.

// ParCounters snapshots the block-kernel diagnostics: kernel runs over
// several blocks, and runs held to one block by the cost cutoff.
// Diagnostics only — never part of a measured result.
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
	// ParKernelDefault lets kernels run over several blocks (they still
	// require Workers > 1 to do so). The zero value, so plain
	// ExecOptions literals keep parallel kernels on.
	ParKernelDefault ParKernelMode = iota
	// ParKernelOff runs every local operator over one block even on
	// parallel clusters — the determinism oracle's reference arm.
	ParKernelOff
)
