package relation

import (
	"sync/atomic"

	"coverpack/internal/metrics"
)

// Streaming telemetry: like the pool counters, the streaming layer
// counts into process-wide atomics on the hot path and exposes them to
// the default registry as callback series read at scrape time — no
// per-chunk registry traffic, and the counters stay available to tests
// through StreamStats even with metrics disabled.

var streamChunks atomic.Uint64

// noteChunk counts one chunk yielded by any streaming iterator.
func noteChunk() { streamChunks.Add(1) }

// StreamCounters snapshots the streaming-layer counters.
type StreamCounters struct {
	// Chunks is the total number of chunks yielded by streaming
	// iterators.
	Chunks uint64
	// Spills is always zero: no iterator retains rows any more. The
	// field stays for the readers of this snapshot.
	Spills uint64
}

// StreamStats snapshots the streaming counters.
func StreamStats() StreamCounters {
	return StreamCounters{Chunks: streamChunks.Load()}
}

// ResetStreamStats zeroes the streaming counters (test/bench seam).
func ResetStreamStats() { streamChunks.Store(0) }

func init() {
	metrics.Default.NewCounterFunc("coverpack_stream_chunks_total",
		"Chunks yielded by streaming relation iterators.",
		func() float64 { return float64(streamChunks.Load()) })
}
