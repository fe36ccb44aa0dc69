package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4): families sorted by name
// with one HELP/TYPE pair each, series sorted by label set, histograms
// rendered as cumulative _bucket{le=...} series plus _sum and _count.

// WritePrometheus renders the registry in Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.k)
		for _, s := range f.series {
			writeSeries(bw, f, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, f *family, s *series) {
	switch c := s.col.(type) {
	case *Counter:
		writeSample(w, f.name, "", s.labels, nil, float64(c.Value()))
	case *Gauge:
		writeSample(w, f.name, "", s.labels, nil, float64(c.Value()))
	case *funcVal:
		writeSample(w, f.name, "", s.labels, nil, c.fn())
	case *Histogram:
		cum := c.snapshotBuckets()
		for i, b := range c.bounds {
			writeSample(w, f.name, "_bucket", s.labels, &Label{"le", formatFloat(b)}, float64(cum[i]))
		}
		writeSample(w, f.name, "_bucket", s.labels, &Label{"le", "+Inf"}, float64(cum[len(cum)-1]))
		writeSample(w, f.name, "_sum", s.labels, nil, c.Sum())
		writeSample(w, f.name, "_count", s.labels, nil, float64(c.Count()))
	}
}

// writeSample emits one line: name[suffix]{labels[,extra]} value.
func writeSample(w *bufio.Writer, name, suffix string, labels []Label, extra *Label, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	if len(labels) > 0 || extra != nil {
		w.WriteByte('{')
		first := true
		for _, l := range labels {
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.WriteString(l.Key)
			w.WriteString(`="`)
			w.WriteString(escapeLabelValue(l.Value))
			w.WriteByte('"')
		}
		if extra != nil {
			if !first {
				w.WriteByte(',')
			}
			w.WriteString(extra.Key)
			w.WriteString(`="`)
			w.WriteString(escapeLabelValue(extra.Value))
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

// formatFloat renders values the way Prometheus expects: integers
// without a decimal point, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslash, double-quote and newline in label
// values.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
