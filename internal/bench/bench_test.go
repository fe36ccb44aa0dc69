package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"coverpack/internal/trace"
)

// smokeScale is the size divisor of the smoke test: one pass per
// workload at one-tenth size.
const smokeScale = 10

// TestSmoke runs every workload once through both kinds of run at
// one-tenth size and checks that each emits exactly its metric names,
// with every op correct. It is also the drift guard of the staged op:
// the traced run books a staged op whose Report differs from
// ExecuteOpts's (the warm-up pass's) as failed.
func TestSmoke(t *testing.T) {
	cfg := Config{Seed: 1, SpillDir: t.TempDir(), Scale: smokeScale, Passes: 1, Setups: 1, KernelReps: 1}
	for _, w := range Workloads() {
		e2e, err := EndToEnd(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var spans bytes.Buffer
		traced, err := Traced(w, cfg, &spans)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, run := range []struct {
			res   *Result
			specs []Metric
		}{{e2e, EndToEndMetrics()}, {traced, PerLayerMetrics()}} {
			if !run.res.Correct() {
				t.Errorf("%s: %d of %d ops failed: %v", w.Name, run.res.Failed, run.res.Attempted, run.res.Failures)
			}
			if len(run.res.Metrics) != len(run.specs) {
				t.Errorf("%s: %d metrics emitted, %d specified", w.Name, len(run.res.Metrics), len(run.specs))
			}
			for _, sp := range run.specs {
				if _, ok := run.res.Metrics[sp.Name]; !ok {
					t.Errorf("%s: metric %s not emitted", w.Name, sp.Name)
				}
			}
		}
		for _, sp := range EndToEndMetrics() {
			if e2e.Metrics[sp.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, sp.Name, e2e.Metrics[sp.Name])
			}
		}
		for i, line := range strings.Split(strings.TrimSpace(spans.String()), "\n") {
			var rec record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: span line %d: %v", w.Name, i, err)
			}
		}
		if cases := len(smokeCases(t, w)); traced.Attempted < 5*cases {
			t.Errorf("%s: traced run attempted %d ops, want set-up + plain + staged + recorded + metrics-off passes of %d cases", w.Name, traced.Attempted, cases)
		}
		if c := traced.Metrics["coverpack.run_ms"]; c <= 0 {
			t.Errorf("%s: staged op clocked run_ms = %v", w.Name, c)
		}
		if traced.Metrics["trace.spans"] == 0 || traced.Metrics["trace.events"] == 0 {
			t.Errorf("%s: the clocked recorder saw no spans or no exchanges", w.Name)
		}
	}
}

func smokeCases(t *testing.T, w Workload) []Case {
	cases, err := w.build(t.TempDir(), 1, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAndLimits(t *testing.T) {
	ws, e2e, layer := Workloads(), EndToEndMetrics(), PerLayerMetrics()
	if len(ws) < 2 || len(ws) > 8 || len(e2e) > 16 || len(layer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics: limits are 2..8, 16, 128", len(ws), len(e2e), len(layer))
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range ws {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range e2e {
		check("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range layer {
		check("per-layer", m.Name)
	}
	// Every case a workload builds either has its own per-op metric
	// or is a catalog case.
	known := map[string]bool{}
	for _, c := range CaseNames() {
		known[c] = true
	}
	for _, w := range ws {
		for _, c := range smokeCases(t, w) {
			if !c.Compile && !known[c.Name] {
				t.Errorf("%s: case %s has no case.<name>.ms_p50 metric", w.Name, c.Name)
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to what the runner emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./cmd/bench"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command %v, want %v", file.Command, want)
	}
	if want := []string{"internal/bench", "cmd/bench"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths %v, want %v", file.Paths, want)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	// 4 + 22 × workloads runs, each run_seconds plus at most 3 s of
	// set-ups and start, must fit the driver's 3420 s with room for
	// two builds.
	if runs := 4 + 22*len(file.Workloads); float64(runs)*(float64(file.RunSeconds)+3) > 3420-120 {
		t.Errorf("%d runs of %d s plus set-up do not fit 3420 s", runs, file.RunSeconds)
	}
	var ws []Workload
	for _, w := range Workloads() {
		if w.NotGated == "" {
			ws = append(ws, w)
		}
	}
	if len(file.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, runner has %d", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed %+v, runner has %q: %q", i, file.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, listed []metric, specs []Metric, bounded bool) {
		if len(listed) != len(specs) {
			t.Fatalf("%s: %d metrics listed, runner emits %d", kind, len(listed), len(specs))
		}
		for i, sp := range specs {
			l := listed[i]
			if l.Name != sp.Name || l.Unit != sp.Unit || l.Better != sp.Better {
				t.Errorf("%s %d: listed %+v, runner emits %+v", kind, i, l, sp)
			}
			if bounded != (l.Bound != nil) || (bounded && *l.Bound != sp.Bound) {
				t.Errorf("%s %s: bound listed %v, runner has %v", kind, sp.Name, l.Bound, sp.Bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, EndToEndMetrics(), true)
	same("per_layer", file.PerLayer, PerLayerMetrics(), false)
}

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {50, 30}, {80, 42}, {100, 50}, {25, 20}} {
		if got := Percentile(xs, tc.q); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 || Median([]float64{7}) != 7 || Median([]float64{1, 2}) != 1.5 {
		t.Error("edge cases")
	}
	if xs[0] != 50 {
		t.Error("Percentile reordered its input")
	}
}

// TestRecorderSelfTime drives the recorder with a hand-set clock:
//
//	op [0,100] ─ statistics [10,40] ─ reduce-by-key [15,25]
//	           └ branch 0 [50,90] ─ heavy branch [60,80]
func TestRecorderSelfTime(t *testing.T) {
	var now time.Duration
	r := newRecorder(func() time.Duration { return now }, true)
	at := func(d time.Duration, f func()) { now = d; f() }
	at(0, func() { r.BeginOp(3, "case") })
	at(10, func() { r.BeginSpan("statistics", trace.KindPhase, 8) })
	at(15, func() { r.BeginSpan("reduce-by-key", trace.KindPhase, 8) })
	at(20, func() { r.Exchange(trace.OpHashPartition, []int{3, 0, 4}) })
	at(25, r.EndSpan)
	at(40, r.EndSpan)
	at(50, func() { r.BeginSpan("branch 0", trace.KindParallel, 4) })
	at(60, func() { r.BeginSpan("heavy branch", trace.KindPhase, 4) })
	at(70, func() { r.Exchange(trace.OpGather, []int{5}) })
	at(80, r.EndSpan)
	at(90, r.EndSpan)
	at(100, r.EndOp)

	want := map[string]time.Duration{"statistics": 20, "reduce_by_key": 10, "heavy_branch": 20, "unattributed": 50}
	if !reflect.DeepEqual(r.Self, want) {
		t.Errorf("self times %v, want %v", r.Self, want)
	}
	var sum time.Duration
	for _, d := range r.Self {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, the op took 100", sum)
	}
	if r.Spans != 5 || r.Events != 2 || r.Rounds[trace.OpHashPartition] != 1 || r.Units[trace.OpHashPartition] != 7 || r.Units[trace.OpGather] != 5 {
		t.Errorf("counts: spans %d events %d rounds %v units %v", r.Spans, r.Events, r.Rounds, r.Units)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("%d JSONL lines, want 5 spans + 2 exchanges", len(lines))
	}
	var first record
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Pass != 3 || first.Op != "HashPartition" || first.Span != 3 || first.Units != 7 || first.Max != 4 {
		t.Errorf("first record %+v", first)
	}
	r.EndSpan() // closing more than was opened is a no-op
}

func TestPhaseKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind trace.SpanKind
		want string
	}{
		{"semi-join reduce", trace.KindPhase, "semijoin_reduce"},
		{"stratum 12", trace.KindPhase, "stratum"},
		{"light stratum", trace.KindPhase, "stratum"},
		{"core path-optimal", trace.KindPhase, "unattributed"},
		{"twig A", trace.KindPhase, "unattributed"},
		{"statistics", trace.KindSubgroup, "unattributed"},
		{"branch 3", trace.KindParallel, "unattributed"},
	} {
		if got := PhaseKey(tc.name, tc.kind); got != tc.want {
			t.Errorf("PhaseKey(%q, %v) = %q, want %q", tc.name, tc.kind, got, tc.want)
		}
	}
	names := map[string]bool{}
	for _, n := range PhaseNames() {
		names[n] = true
	}
	for _, k := range phaseKeys {
		if !names[k] {
			t.Errorf("phase key %q has no metric", k)
		}
	}
}

func TestNestedLoopCount(t *testing.T) {
	// Triangle R(A,B) S(B,C) T(C,A) with attribute ids A=0 B=1 C=2.
	attrs := [][]int{{0, 1}, {1, 2}, {2, 0}}
	rows := [][][]int64{
		{{1, 2}, {1, 3}, {4, 5}, {1, 2}}, // one duplicate row
		{{2, 3}, {3, 3}, {5, 6}},
		{{3, 1}, {6, 9}},
	}
	// Results: (A,B,C) = (1,2,3) and (1,3,3).
	if got := NestedLoopCount(attrs, rows); got != 2 {
		t.Errorf("triangle count %d, want 2", got)
	}
	// Disconnected relations multiply.
	if got := NestedLoopCount([][]int{{0}, {1}}, [][][]int64{{{1}, {2}, {3}}, {{7}, {8}}}); got != 6 {
		t.Errorf("product count %d, want 6", got)
	}
	if got := NestedLoopCount([][]int{{0}, {0}}, [][][]int64{{{1}}, {}}); got != 0 {
		t.Errorf("empty relation: %d, want 0", got)
	}
	if got := DomainProduct([][]int{{0, 1}, {1, 2}}, [][][]int64{{{1, 1}, {2, 1}}, {{1, 5}, {1, 6}, {1, 7}}}); got != 2*1*3 {
		t.Errorf("DomainProduct %d, want 6", got)
	}
}
