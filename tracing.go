package coverpack

import (
	"io"

	"coverpack/internal/trace"
)

// This file re-exports the internal/trace recording layer so library
// users can capture and render execution traces without importing
// internal packages. See ExecuteTraced for the entry point.

// TraceRecorder receives span and exchange emissions from the MPC
// simulator during an ExecuteTraced run.
type TraceRecorder = trace.Recorder

// TraceCollector is the TraceRecorder that builds a span tree in
// memory; create one with NewTraceCollector, pass it to ExecuteTraced,
// then render its Root with WriteTrace or aggregate it with PhaseTable.
type TraceCollector = trace.Collector

// TraceSpan is one node of a collected span tree.
type TraceSpan = trace.Span

// PhaseRow is one line of the per-phase load-attribution table.
type PhaseRow = trace.PhaseRow

// CacheStats reports the HashPartition counts of one execution (see
// ExecOptions.PlanStats): Misses counts the exchanges that hashed and
// PartitionHits those that took the identity path because their input
// was already partitioned on the key; Hits is always 0, since there is
// no exchange-plan cache. The counters are diagnostics only — they
// never influence Reports, Stats, or traces.
type CacheStats = trace.CacheStats

// TraceFormat names a trace rendering: jsonl, chrome, or heatmap.
type TraceFormat = trace.Format

const (
	// TraceJSONL renders one JSON object per span/exchange.
	TraceJSONL = trace.FormatJSONL
	// TraceChrome renders Chrome trace-event JSON for
	// about:tracing/Perfetto.
	TraceChrome = trace.FormatChrome
	// TraceHeatmap renders an ASCII per-round × per-server load heatmap.
	TraceHeatmap = trace.FormatHeatmap
)

// NewTraceCollector returns an empty trace collector.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// ParseTraceFormat validates a format name (e.g. a -trace-format flag).
func ParseTraceFormat(s string) (TraceFormat, error) { return trace.ParseFormat(s) }

// WriteTrace renders a collected span tree in the given format.
func WriteTrace(w io.Writer, root *TraceSpan, format TraceFormat) error {
	return trace.Write(w, root, format)
}

// PhaseTable aggregates a collected span tree into per-phase load
// attribution rows, sorted by attributed units descending.
func PhaseTable(root *TraceSpan) []PhaseRow { return trace.PhaseTable(root) }

// AttributedShare is the fraction of total units attributed to named
// phases in a PhaseTable result.
func AttributedShare(rows []PhaseRow) float64 { return trace.AttributedShare(rows) }
