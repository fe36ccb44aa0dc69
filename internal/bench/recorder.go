package bench

import (
	"encoding/json"
	"io"
	"strings"
	"time"

	"coverpack/internal/trace"
)

// Recorder is the benchmark's clocked trace.Recorder: it timestamps
// the spans the engine already opens and the exchanges it already
// charges, from outside the engine. It must sit on a Workers=1 run:
// the parallel engine buffers branch events and replays them after the
// fact, which would stamp them with replay time.
type Recorder struct {
	now  func() time.Duration
	keep bool // retain span and exchange records for WriteJSONL
	pass int

	stack []openSpan
	recs  []record

	// Self is wall self time (span minus the part its children cover)
	// by phase key; Rounds and Units count exchanges by trace.Op.
	Self          map[string]time.Duration
	Rounds, Units [numOps]int64
	Spans, Events int
}

const numOps = int(trace.OpChargeControl) + 1

type openSpan struct {
	id       int
	name     string
	kind     trace.SpanKind
	servers  int
	start    time.Duration
	children time.Duration
}

// record is one JSONL line: a closed span or an exchange.
type record struct {
	Pass    int    `json:"pass"`
	ID      int    `json:"id,omitempty"`
	Parent  int    `json:"parent,omitempty"`
	Span    int    `json:"span,omitempty"` // exchanges: the enclosing span
	Name    string `json:"name,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Op      string `json:"op,omitempty"`
	Servers int    `json:"servers,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns,omitempty"`
	SelfNs  int64  `json:"self_ns,omitempty"`
	Units   int64  `json:"units,omitempty"`
	Max     int    `json:"max,omitempty"`
}

// NewRecorder returns a recorder on the wall clock; keep retains every
// span and exchange for WriteJSONL.
func NewRecorder(keep bool) *Recorder {
	epoch := time.Now()
	return newRecorder(func() time.Duration { return time.Since(epoch) }, keep)
}

func newRecorder(now func() time.Duration, keep bool) *Recorder {
	return &Recorder{now: now, keep: keep, Self: map[string]time.Duration{}}
}

// BeginOp opens the root span of one op; every span of the op nests
// under it and shares its pass id.
func (r *Recorder) BeginOp(pass int, name string) {
	r.pass = pass
	r.BeginSpan(name, trace.KindRoot, 0)
}

// EndOp closes the op's root span.
func (r *Recorder) EndOp() { r.EndSpan() }

// BeginSpan implements trace.Recorder.
func (r *Recorder) BeginSpan(name string, kind trace.SpanKind, servers int) {
	r.Spans++
	r.stack = append(r.stack, openSpan{id: r.Spans, name: name, kind: kind, servers: servers, start: r.now()})
}

// EndSpan implements trace.Recorder.
func (r *Recorder) EndSpan() {
	n := len(r.stack)
	if n == 0 {
		return
	}
	s := r.stack[n-1]
	r.stack = r.stack[:n-1]
	end := r.now()
	dur := end - s.start
	self := dur - s.children
	r.Self[PhaseKey(s.name, s.kind)] += self
	parent := 0
	if n > 1 {
		r.stack[n-2].children += dur
		parent = r.stack[n-2].id
	}
	if r.keep {
		r.recs = append(r.recs, record{Pass: r.pass, ID: s.id, Parent: parent, Name: s.name, Kind: s.kind.String(),
			Servers: s.servers, StartNs: int64(s.start), EndNs: int64(end), SelfNs: int64(self)})
	}
}

// Exchange implements trace.Recorder.
func (r *Recorder) Exchange(op trace.Op, recv []int) {
	var total int64
	max := 0
	for _, u := range recv {
		total += int64(u)
		if u > max {
			max = u
		}
	}
	r.Events++
	if int(op) < numOps {
		r.Rounds[op]++
		r.Units[op] += total
	}
	if r.keep {
		span := 0
		if n := len(r.stack); n > 0 {
			span = r.stack[n-1].id
		}
		r.recs = append(r.recs, record{Pass: r.pass, Span: span, Op: op.String(), StartNs: int64(r.now()), Units: total, Max: max})
	}
}

// WriteJSONL writes the retained spans and exchanges, one JSON object
// per line, in completion order.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.recs {
		if err := enc.Encode(&r.recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// phaseKeys maps the engine's phase span names onto phase.<key>_ms.
var phaseKeys = map[string]string{
	"statistics":        "statistics",
	"semi-join reduce":  "semijoin_reduce",
	"heavy/light split": "heavy_light_split",
	"allocation":        "allocation",
	"heavy branch":      "heavy_branch",
	"light branch":      "light_branch",
	"case II split":     "case2_split",
	"join up":           "join_up",
	"hypercube route":   "hypercube_route",
	"reduce-by-key":     "reduce_by_key",
	"pack":              "pack",
	"light stratum":     "stratum",
	"heavy stratum":     "stratum",
}

// PhaseKey names the phase metric a span's self time belongs to.
// Structural spans (branches, subgroups, the op root) and the wrapper
// phases "core …" and "twig …" are unattributed: their self time is
// what no named phase covers.
func PhaseKey(name string, kind trace.SpanKind) string {
	if kind == trace.KindPhase {
		if k, ok := phaseKeys[name]; ok {
			return k
		}
		if strings.HasPrefix(name, "stratum ") {
			return "stratum"
		}
	}
	return "unattributed"
}

// PhaseNames lists the phase keys in metric order.
func PhaseNames() []string {
	return []string{"statistics", "semijoin_reduce", "heavy_light_split", "allocation", "heavy_branch", "light_branch",
		"case2_split", "join_up", "hypercube_route", "stratum", "reduce_by_key", "pack", "unattributed"}
}
