package coverpack

import "coverpack/internal/relation"

// This file re-exports the streaming-execution layer: relation
// operators composed as arena-chunk iterators instead of one fully
// materialized arena per operator. Streaming is a pure
// allocation/wall-clock lever — exchanges remain materialization
// points, so loads, traces, phase tables and sweep tables are
// byte-identical with streaming on or off (the difftest oracle runs
// the full matrix both ways to pin it).

// StreamCounters snapshots the streaming diagnostics: chunks yielded,
// buffered-iterator spills, and the peak retained-arena high-water
// mark. Diagnostics only — never part of a measured result.
type StreamCounters = relation.StreamCounters

// StreamStats snapshots the streaming counters.
func StreamStats() StreamCounters { return relation.StreamStats() }

// ResetStreamStats zeroes the streaming counters (test and benchmark
// seam).
func ResetStreamStats() { relation.ResetStreamStats() }

// StreamMode selects the streaming behavior of one execution (see
// ExecOptions.Streaming).
type StreamMode int

const (
	// StreamDefault streams. The zero value, so plain ExecOptions
	// literals keep streaming on.
	StreamDefault StreamMode = iota
	// StreamOff runs every gated composition through the historical
	// materialized operators — the pre-streaming code path, and the
	// determinism oracle's reference arm.
	StreamOff
)
