package coverpack

// Streaming is no longer a run mode: every run executes the same
// exact-size local operators. The names below have no effect and stay
// only because internal/bench reads them; ROADMAP item 1 deletes them
// with that harness code.

// StreamCounters is the former streaming-layer snapshot. It has no
// effect: both fields always read zero.
type StreamCounters struct {
	Chunks uint64
	Spills uint64
}

// StreamStats has no effect: it returns zero counters.
func StreamStats() StreamCounters { return StreamCounters{} }

// StreamMode is the type of ExecOptions.Streaming, which has no effect.
type StreamMode int

// StreamDefault is the zero StreamMode, the only one left.
const StreamDefault StreamMode = 0
