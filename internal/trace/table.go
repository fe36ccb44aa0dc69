package trace

import "sort"

// PhaseRow is one line of the per-phase load attribution table: the
// aggregate cost of every exchange whose nearest enclosing named phase
// span (Group.Span) carries this name.
type PhaseRow struct {
	// Phase is the span name, or "(unattributed)" for exchanges with no
	// enclosing phase span.
	Phase string
	// Exchanges is the number of rounds attributed to the phase.
	Exchanges int
	// Units is the attributed communication volume.
	Units int64
	// MaxLoad is the largest per-server per-round load inside the phase.
	MaxLoad int
	// Share is Units as a fraction of the whole trace's TotalUnits
	// (0 when the trace moved nothing).
	Share float64
}

// Unattributed is the phase label of exchanges outside any named span.
const Unattributed = "(unattributed)"

// PhaseTable aggregates a span tree into per-phase rows, sorted by
// units descending (ties by name). Every exchange is attributed to its
// nearest ancestor-or-self span of KindPhase; structural spans
// (parallel branches) inherit the enclosing phase.
func PhaseTable(root *Span) []PhaseRow {
	acc := map[string]*PhaseRow{}
	var total int64
	var walk func(s *Span, phase string)
	walk = func(s *Span, phase string) {
		if s.Kind == KindPhase {
			phase = s.Name
		}
		if len(s.Events) > 0 {
			r := acc[phase]
			if r == nil {
				r = &PhaseRow{Phase: phase}
				acc[phase] = r
			}
			for _, ev := range s.Events {
				r.Exchanges++
				r.Units += ev.Hist.Total
				total += ev.Hist.Total
				if ev.Hist.Max > r.MaxLoad {
					r.MaxLoad = ev.Hist.Max
				}
			}
		}
		for _, c := range s.Children {
			walk(c, phase)
		}
	}
	walk(root, Unattributed)
	out := make([]PhaseRow, 0, len(acc))
	for _, r := range acc {
		if total > 0 {
			r.Share = float64(r.Units) / float64(total)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Units != out[j].Units {
			return out[i].Units > out[j].Units
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// AttributedShare returns the fraction of total units attributed to
// named phases (1 − the unattributed share); 1 when nothing moved.
func AttributedShare(rows []PhaseRow) float64 {
	share := 1.0
	for _, r := range rows {
		if r.Phase == Unattributed {
			share -= r.Share
		}
	}
	return share
}
