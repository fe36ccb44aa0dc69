package relation

import (
	"sync/atomic"

	"coverpack/internal/metrics"
)

// Spill telemetry: process-wide atomics on the write/read paths,
// exposed to the default registry as callback series read at scrape
// time — the same shape as the pool and block-kernel counters, and like
// them available to tests through SpillStats with metrics disabled.

var (
	spillParks        atomic.Uint64
	spillPageIns      atomic.Uint64
	spillSegsWritten  atomic.Uint64
	spillBytesWritten atomic.Uint64
	spillBytesRead    atomic.Uint64
	// spillHeldBytes is the on-disk footprint (file bytes, headers
	// included) of segment files currently held: written minus removed.
	spillHeldBytes atomic.Int64
)

// notePark counts one relation parked to disk.
func notePark() { spillParks.Add(1) }

// notePageIn counts one parked relation paged fully back in.
func notePageIn() { spillPageIns.Add(1) }

// noteSegmentWritten counts one segment file of b bytes written.
func noteSegmentWritten(b uint64) {
	spillSegsWritten.Add(1)
	spillBytesWritten.Add(b)
	spillHeldBytes.Add(int64(b))
}

// noteSegmentRemoved retires b held bytes when a segment file is
// deleted.
func noteSegmentRemoved(b uint64) { spillHeldBytes.Add(-int64(b)) }

// noteSegmentRead counts b payload bytes decoded back from disk.
func noteSegmentRead(b uint64) { spillBytesRead.Add(b) }

// SpillCounters snapshots the relation-level spill counters.
type SpillCounters struct {
	// Parks counts relations parked to disk (ParkTo).
	Parks uint64
	// PageIns counts parked relations paged fully back into a resident
	// arena (a random-access touch on a parked relation).
	PageIns uint64
	// SegmentsWritten counts segment files written.
	SegmentsWritten uint64
	// BytesWritten is the total bytes of segment files written
	// (headers included).
	BytesWritten uint64
	// BytesRead is the total payload bytes decoded back from disk
	// (page-ins and streamed reads).
	BytesRead uint64
	// HeldBytes is the on-disk footprint of segment files currently
	// held (written minus removed).
	HeldBytes int64
}

// SpillStats snapshots the spill counters.
func SpillStats() SpillCounters {
	return SpillCounters{
		Parks:           spillParks.Load(),
		PageIns:         spillPageIns.Load(),
		SegmentsWritten: spillSegsWritten.Load(),
		BytesWritten:    spillBytesWritten.Load(),
		BytesRead:       spillBytesRead.Load(),
		HeldBytes:       spillHeldBytes.Load(),
	}
}

// ResetSpillStats zeroes the spill counters (test/bench seam).
func ResetSpillStats() {
	spillParks.Store(0)
	spillPageIns.Store(0)
	spillSegsWritten.Store(0)
	spillBytesWritten.Store(0)
	spillBytesRead.Store(0)
	spillHeldBytes.Store(0)
}

func init() {
	metrics.Default.NewCounterFunc("coverpack_spill_parks_total",
		"Relations parked to on-disk arena segments.",
		func() float64 { return float64(spillParks.Load()) })
	metrics.Default.NewCounterFunc("coverpack_spill_pageins_total",
		"Parked relations paged fully back into a resident arena.",
		func() float64 { return float64(spillPageIns.Load()) })
	metrics.Default.NewCounterFunc("coverpack_spill_segments_total",
		"Arena segment files written to the spill directory.",
		func() float64 { return float64(spillSegsWritten.Load()) })
	metrics.Default.NewCounterFunc("coverpack_spill_bytes_written_total",
		"Bytes of arena segment files written (headers included).",
		func() float64 { return float64(spillBytesWritten.Load()) })
	metrics.Default.NewCounterFunc("coverpack_spill_bytes_read_total",
		"Payload bytes decoded back from spilled segments.",
		func() float64 { return float64(spillBytesRead.Load()) })
	metrics.Default.NewGaugeFunc("coverpack_spill_held_bytes",
		"On-disk footprint of segment files currently held.",
		func() float64 { return float64(spillHeldBytes.Load()) })
}
