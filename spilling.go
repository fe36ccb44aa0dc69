package coverpack

import (
	"os"

	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// This file re-exports the out-of-core execution layer: arena storage
// built from size-classed segments that individually page to disk,
// plus the memory-budget placement policy that decides which exchange
// outputs stay resident. Spilling is a pure placement lever — where
// bytes live, never what any run computes — so reports, traces, phase
// tables and sweep tables are byte-identical with spilling on or off
// (the difftest oracle runs spill-on/off arms to pin it).

// DefaultSpillBudgetBytes is the resident-byte budget used when a
// spill directory is configured but no explicit budget is given
// (ExecOptions.SpillBudgetBytes == 0): 64 MiB.
const DefaultSpillBudgetBytes int64 = 64 << 20

// SpillCounters snapshots the storage-level spill diagnostics: parks,
// page-ins, segment files and bytes written/read, and the on-disk
// footprint. Diagnostics only — never part of a measured result.
type SpillCounters = relation.SpillCounters

// SpillStats snapshots the spill counters.
func SpillStats() SpillCounters { return relation.SpillStats() }

// ResetSpillStats zeroes the spill counters (test and benchmark seam).
func ResetSpillStats() { relation.ResetSpillStats() }

// SpillSummary is the merged diagnostics shape: storage counters plus
// the last run's retained-byte gauges (trace.SpillStats).
type SpillSummary = trace.SpillStats

// SpillRetainedPeakBytes returns the highest resident byte sum any
// spill admission in this process observed — what sweep tests compare
// against ExecOptions.SpillBudgetBytes to prove a run whose working
// set exceeded the budget actually stayed under it.
func SpillRetainedPeakBytes() int64 { return mpc.SpillRetainedPeakBytes() }

// ResetSpillRetainedPeak zeroes the process-wide retained-peak gauge
// (test and benchmark seam, like ResetSpillStats).
func ResetSpillRetainedPeak() { mpc.ResetSpillRetainedPeak() }

// SpillMode selects the spill behavior of one execution (see
// ExecOptions.Spilling).
type SpillMode int

const (
	// SpillDefault follows the configuration: spilling engages only
	// when the run names a spill directory (SpillDir). The zero value,
	// so plain ExecOptions literals keep the fully resident historical
	// behavior.
	SpillDefault SpillMode = iota
	// SpillOn forces spill placement for the run, defaulting the
	// directory to os.TempDir() when none is configured.
	SpillOn
	// SpillOff forces fully resident execution for the run.
	SpillOff
)

// spillOptions resolves the ExecOptions spill fields into an mpc
// option (nil when the run stays fully resident).
func spillOptions(eo ExecOptions) []mpc.Option {
	if eo.Spilling == SpillOff {
		return nil
	}
	dir := eo.SpillDir
	if dir == "" && eo.Spilling == SpillOn {
		dir = os.TempDir()
	}
	if dir == "" {
		return nil
	}
	budget := eo.SpillBudgetBytes
	if budget <= 0 {
		budget = DefaultSpillBudgetBytes
	}
	return []mpc.Option{mpc.WithSpill(dir, budget)}
}
