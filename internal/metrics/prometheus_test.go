package metrics

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry builds a registry exercising every exposition shape:
// plain and labeled counters, a gauge, a histogram with observations in
// several buckets, escaped help text and escaped label values.
func goldenRegistry() *Registry {
	r := NewRegistry("golden")
	hit := r.NewCounter("test_events_total", "Events by type.", Label{"event", "hit"})
	hit.Add(2)
	miss := r.NewCounter("test_events_total", "", Label{"event", "miss"})
	miss.Inc()
	g := r.NewGauge("test_inflight", "In-flight work.")
	g.Add(7)
	h := r.NewHistogram("test_latency_seconds", "Latency with \\ and\nnewline.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.0625, 0.5, 0.5, 20} {
		h.Observe(v)
	}
	p := r.NewCounter("test_path_total", "Paths by name.", Label{"path", "a\\b\"c\nd"})
	p.Inc()
	c := r.NewCounter("test_requests_total", "Total requests.")
	c.Add(3)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// The golden output must pass the package's own linter.
	if err := Lint(buf.Bytes()); err != nil {
		t.Errorf("Lint(golden) = %v", err)
	}
}

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry("empty").WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty registry wrote %q", buf.String())
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Errorf("Lint(empty) = %v", err)
	}
}

// A HistogramVec with no With calls yet is a family with zero series;
// it must not emit a dangling TYPE line.
func TestWritePrometheusSkipsEmptyFamilies(t *testing.T) {
	r := NewRegistry("t")
	r.NewHistogramVec("t_phase_seconds", "h", []float64{1}, "phase")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty family wrote %q", buf.String())
	}
}

func TestLabelEscapingRoundTrips(t *testing.T) {
	r := NewRegistry("t")
	r.NewCounter("t_esc_total", "", Label{"v", `quote " slash \ nl` + "\n"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `v="quote \" slash \\ nl\n"`) {
		t.Errorf("escaping wrong:\n%s", out)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Errorf("Lint = %v", err)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no type":          "some_metric 1\n",
		"bad value":        "# TYPE m counter\nm abc\n",
		"unbalanced block": "# TYPE m counter\nm{a=\"x 1\n",
		"bucket sans le":   "# TYPE m histogram\nm_bucket{x=\"1\"} 2\n",
	}
	for name, in := range cases {
		if err := Lint([]byte(in)); err == nil {
			t.Errorf("%s: Lint accepted %q", name, in)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:     "1",
		0.1:   "0.1",
		21.25: "21.25",
		1e9:   "1e+09",
		-4:    "-4",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%g) = %q, want %q", in, got, want)
		}
	}
}

// Lint validates a Prometheus text exposition: every sample line must
// parse (name, optional balanced label block, float value), every
// sample's base family must have a preceding TYPE line, and histogram
// _bucket series must carry an le label. It returns the first problem
// found, or nil. The exposition and debug-server tests run their output
// through it.
func Lint(data []byte) error {
	typed := map[string]string{}
	lineNo := 0
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := splitSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !validMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: bad value %q", lineNo, value)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		t, ok := typed[name]
		if !ok {
			t, ok = typed[base]
		}
		if !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		if t == "histogram" && strings.HasSuffix(name, "_bucket") && !strings.Contains(labels, `le="`) {
			return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
		}
	}
	return nil
}

// splitSample splits `name{labels} value` (labels optional) without
// being confused by escaped quotes inside label values.
func splitSample(line string) (name, labels, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		end := -1
		inStr := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inStr && rest[j] == '\\':
				j++
			case rest[j] == '"':
				inStr = !inStr
			case !inStr && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", "", fmt.Errorf("unbalanced label block in %q", line)
		}
		labels = rest[:end+1]
		rest = rest[end+1:]
	}
	value = strings.TrimSpace(rest)
	if value == "" {
		return "", "", "", fmt.Errorf("sample %q missing value", line)
	}
	return name, labels, value, nil
}
