package coverpack

// Streaming, out-of-core execution and the exchange-plan cache are gone:
// every run executes the same exact-size local operators on resident
// arenas, writes no file and hashes every exchange whose input is not
// already partitioned on its key. The names below, with ExecOptions'
// NoPlanCache, Streaming, Spilling, SpillDir and SpillBudgetBytes
// fields, have no effect and stay only because internal/bench reads
// them. ROADMAP item 1 deletes these with the harness code that reads
// them.

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
