package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	h := Summarize([]int{0, 10, 20, 30})
	if h.Servers != 4 || h.Max != 30 || h.Total != 60 {
		t.Fatalf("hist = %+v", h)
	}
	if h.Mean != 15 {
		t.Fatalf("mean = %v", h.Mean)
	}
	if h.P50 != 10 { // nearest-rank: ceil(4·0.5) = 2nd smallest
		t.Fatalf("p50 = %d", h.P50)
	}
	if h.P99 != 30 {
		t.Fatalf("p99 = %d", h.P99)
	}
	if math.Abs(h.Skew-2.0) > 1e-9 {
		t.Fatalf("skew = %v", h.Skew)
	}
}

func TestSummarizeEmptyAndZero(t *testing.T) {
	if h := Summarize(nil); h.Max != 0 || h.Skew != 0 || h.Servers != 0 {
		t.Fatalf("empty hist = %+v", h)
	}
	if h := Summarize([]int{0, 0}); h.Skew != 0 || h.Mean != 0 || h.P99 != 0 {
		t.Fatalf("zero hist = %+v", h)
	}
}

func TestBucketLoadsKeepsMax(t *testing.T) {
	wide := make([]int, 4*maxHeatmapCols)
	wide[1000] = 77
	b := bucketLoads(wide)
	if len(b) != maxHeatmapCols {
		t.Fatalf("len = %d", len(b))
	}
	max := 0
	for _, v := range b {
		if v > max {
			max = v
		}
	}
	if max != 77 {
		t.Fatalf("bucketed max = %d, want 77", max)
	}
}

// buildTrace assembles a small two-phase trace:
//
//	root
//	├── phase "statistics"   (1 exchange, 40 units)
//	├── (root-level exchange, 5 units, unattributed)
//	└── parallel "branch 0"
//	    └── phase "heavy branch" (1 exchange, 55 units)
func buildTrace() *Collector {
	c := NewCollector()
	c.BeginSpan("statistics", KindPhase, 4)
	c.Exchange(OpHashPartition, []int{10, 10, 10, 10})
	c.EndSpan()
	c.Exchange(OpChargeControl, []int{5, 0, 0, 0})
	c.BeginSpan("branch 0", KindParallel, 2)
	c.BeginSpan("heavy branch", KindPhase, 2)
	c.Exchange(OpBroadcast, []int{30, 25})
	c.EndSpan()
	c.EndSpan()
	return c
}

func TestCollectorTree(t *testing.T) {
	root := buildTrace().Root()
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d", len(root.Children))
	}
	if root.TotalUnits() != 40+5+55 {
		t.Fatalf("total = %d", root.TotalUnits())
	}
	if root.MaxLoad() != 30 {
		t.Fatalf("max = %d", root.MaxLoad())
	}
	events := 0
	root.Walk(func(sp *Span) { events += len(sp.Events) })
	if events != 3 {
		t.Fatalf("events = %d", events)
	}
	stats := root.Children[0]
	if stats.Name != "statistics" || stats.Start != 0 || stats.End != 1 {
		t.Fatalf("stats span = %+v", stats)
	}
	par := root.Children[1]
	if par.Kind != KindParallel || len(par.Children) != 1 {
		t.Fatalf("parallel span = %+v", par)
	}
	if par.Start != 2 || par.End != 3 {
		t.Fatalf("parallel extent = [%d,%d)", par.Start, par.End)
	}
}

func TestCollectorUnbalancedEnd(t *testing.T) {
	c := NewCollector()
	c.EndSpan() // extra end at root: must not panic or corrupt
	c.BeginSpan("open", KindPhase, 1)
	c.Exchange(OpGather, []int{3})
	root := c.Root() // span never ended: finalized at current seq
	if root.Children[0].End != 1 {
		t.Fatalf("open span end = %d", root.Children[0].End)
	}
}

func TestPhaseTable(t *testing.T) {
	rows := PhaseTable(buildTrace().Root())
	byName := map[string]PhaseRow{}
	for _, r := range rows {
		byName[r.Phase] = r
	}
	if r := byName["statistics"]; r.Units != 40 || r.Exchanges != 1 || r.MaxLoad != 10 {
		t.Fatalf("statistics row = %+v", r)
	}
	// The parallel branch inherits no phase of its own; its phase-span
	// child gets the units.
	if r := byName["heavy branch"]; r.Units != 55 || r.MaxLoad != 30 {
		t.Fatalf("heavy branch row = %+v", r)
	}
	if r := byName[Unattributed]; r.Units != 5 {
		t.Fatalf("unattributed row = %+v", r)
	}
	// Sorted by units descending.
	if rows[0].Phase != "heavy branch" {
		t.Fatalf("rows[0] = %+v", rows[0])
	}
	share := AttributedShare(rows)
	want := float64(95) / 100
	if share < want-1e-9 || share > want+1e-9 {
		t.Fatalf("attributed share = %v, want 0.95", share)
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, buildTrace().Root()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	spans, exchanges := 0, 0
	for sc.Scan() {
		var line map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch line["type"] {
		case "span":
			spans++
		case "exchange":
			exchanges++
			if _, ok := line["hist"].(map[string]interface{}); !ok {
				t.Fatalf("exchange line lacks hist: %q", sc.Text())
			}
		default:
			t.Fatalf("unknown line type %v", line["type"])
		}
	}
	if spans != 4 || exchanges != 3 { // root + 3 spans, 3 events
		t.Fatalf("spans=%d exchanges=%d", spans, exchanges)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, buildTrace().Root()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	sawSlice, sawCounter := false, false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			sawSlice = true
		case "C":
			sawCounter = true
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Pid != 1 {
			t.Fatalf("pid = %d", ev.Pid)
		}
	}
	if !sawSlice || !sawCounter {
		t.Fatalf("slice=%v counter=%v", sawSlice, sawCounter)
	}
}

func TestWriteHeatmap(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeatmap(&buf, buildTrace().Root()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2+3 { // two header lines + one row per exchange
		t.Fatalf("heatmap lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "HashPartition") {
		t.Fatalf("first row %q", lines[2])
	}
	// Rows must be in timeline order despite tree interleaving.
	if !strings.Contains(lines[3], "ChargeControl") || !strings.Contains(lines[4], "Broadcast") {
		t.Fatalf("row order wrong:\n%s", out)
	}
	// The hottest cell uses the darkest rune.
	if !strings.ContainsRune(lines[4], rune(heatScale[len(heatScale)-1])) {
		t.Fatalf("hottest row lacks darkest cell: %q", lines[4])
	}
}

func TestParseFormat(t *testing.T) {
	for _, good := range []string{"jsonl", "chrome", "HEATMAP"} {
		if _, err := ParseFormat(good); err != nil {
			t.Fatalf("ParseFormat(%q): %v", good, err)
		}
	}
	if _, err := ParseFormat("protobuf"); err == nil {
		t.Fatal("expected error")
	}
}
