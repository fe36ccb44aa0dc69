// Package trace is the recording layer of the MPC simulator: a
// hierarchical span tree mirroring the Group/Parallel nesting of a
// computation, with one event per exchange carrying the operation
// kind, its position on the round timeline, and a per-server
// received-load histogram (max, mean, p50/p99, skew ratio).
//
// The simulator (internal/mpc) emits into a Recorder hung off the
// Cluster; algorithm layers open named phase spans ("statistics",
// "heavy/light split", "semi-join reduce", ...) so that load attributes
// to paper-level concepts rather than raw exchanges, and leave their
// structural decisions as zero-width note spans (read back by Notes).
// A collected trace renders as JSONL, as Chrome trace-event JSON
// (loadable in about:tracing and Perfetto), or as an ASCII per-round ×
// per-server load heatmap (see export.go), and aggregates into a
// per-phase load attribution table (see table.go).
//
// The package has no dependencies inside the repository, so every layer
// may import it.
package trace

import "sort"

// Op identifies the kind of a charged exchange. No engine path emits
// OpSendTo any more; it keeps its value because internal/bench indexes
// its op table by Op.
type Op uint8

const (
	OpHashPartition Op = iota
	OpBroadcast
	OpGather
	OpRoute
	OpSendTo
	OpDistribute
	OpChargeControl
)

func (op Op) String() string {
	switch op {
	case OpHashPartition:
		return "HashPartition"
	case OpBroadcast:
		return "Broadcast"
	case OpGather:
		return "Gather"
	case OpRoute:
		return "Route"
	case OpSendTo:
		return "SendTo"
	case OpDistribute:
		return "Distribute"
	case OpChargeControl:
		return "ChargeControl"
	}
	return "Op?"
}

// SpanKind distinguishes algorithm-named phases from the structural
// spans the simulator opens for parallel branches.
type SpanKind uint8

const (
	// KindRoot is the implicit whole-computation span.
	KindRoot SpanKind = iota
	// KindPhase is an algorithm-opened named span (Group.Span); phase
	// spans are the attribution targets of the per-phase load table.
	KindPhase
	// KindParallel is one branch of a Parallel block.
	KindParallel
	// KindSubgroup was a sequential subgroup computation. No engine path
	// opens one any more; it keeps its value because internal/bench
	// indexes its kind table by SpanKind.
	KindSubgroup
	// KindNote is a zero-width span whose name is one line of an
	// algorithm's decision log (Group.Note); Notes reads them back.
	KindNote
)

func (k SpanKind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindPhase:
		return "phase"
	case KindParallel:
		return "parallel"
	case KindSubgroup:
		return "subgroup"
	case KindNote:
		return "note"
	}
	return "kind?"
}

// LoadHist summarizes one exchange's per-server received-unit vector.
type LoadHist struct {
	// Servers is the number of destinations of the round (including
	// servers that received nothing).
	Servers int `json:"servers"`
	// Max is the largest per-server load — the quantity whose maximum
	// over all rounds is the paper's L.
	Max int `json:"max"`
	// Mean is Total / Servers.
	Mean float64 `json:"mean"`
	// P50 and P99 are the 50th and 99th percentile per-server loads
	// (nearest-rank over all destinations, zeros included).
	P50 int `json:"p50"`
	P99 int `json:"p99"`
	// Total is the communication volume of the round in units.
	Total int64 `json:"total"`
	// Skew is Max/Mean, the imbalance ratio (1 = perfectly even; 0 when
	// the round moved nothing).
	Skew float64 `json:"skew"`
}

// maxHeatmapCols bounds the per-event load vector kept for the heatmap
// exporter; wider rounds are bucketed by max.
const maxHeatmapCols = 256

// Summarize computes the histogram summary of a received-load vector.
func Summarize(recv []int) LoadHist {
	h := LoadHist{Servers: len(recv)}
	if len(recv) == 0 {
		return h
	}
	for _, r := range recv {
		if r > h.Max {
			h.Max = r
		}
		h.Total += int64(r)
	}
	h.Mean = float64(h.Total) / float64(len(recv))
	sorted := append([]int(nil), recv...)
	sort.Ints(sorted)
	h.P50 = sorted[nearestRank(len(sorted), 50)]
	h.P99 = sorted[nearestRank(len(sorted), 99)]
	if h.Mean > 0 {
		h.Skew = float64(h.Max) / h.Mean
	}
	return h
}

// nearestRank returns the 0-based index of the q-th percentile under the
// nearest-rank definition.
func nearestRank(n, q int) int {
	i := (n*q + 99) / 100 // ceil(n·q/100)
	if i < 1 {
		i = 1
	}
	if i > n {
		i = n
	}
	return i - 1
}

// bucketLoads downsamples a received-load vector to at most
// maxHeatmapCols cells, keeping the max of each bucket (so hot servers
// stay visible).
func bucketLoads(recv []int) []int {
	if len(recv) <= maxHeatmapCols {
		return append([]int(nil), recv...)
	}
	out := make([]int, maxHeatmapCols)
	for i, r := range recv {
		b := i * maxHeatmapCols / len(recv)
		if r > out[b] {
			out[b] = r
		}
	}
	return out
}

// Event is one charged exchange.
type Event struct {
	// Op is the operation kind.
	Op Op `json:"op"`
	// Seq is the exchange's position on the cluster-wide round timeline
	// (0-based, one tick per exchange anywhere in the computation).
	Seq int `json:"seq"`
	// Hist summarizes the per-server received loads.
	Hist LoadHist `json:"hist"`
	// Loads is the (possibly bucketed, ≤256 cells) per-server load
	// vector, kept for the heatmap exporter.
	Loads []int `json:"-"`
}

// Span is one node of the span tree.
type Span struct {
	// Name is the span label ("statistics", "branch 3", ...).
	Name string `json:"name"`
	// Kind distinguishes phases from structural spans.
	Kind SpanKind `json:"kind"`
	// Servers is the size of the group the span ran on.
	Servers int `json:"servers"`
	// Start and End delimit the span on the round timeline: Start is the
	// seq of the first tick inside the span, End is one past the last
	// (Start == End for spans without exchanges).
	Start int `json:"start"`
	End   int `json:"end"`
	// Events are the exchanges charged directly inside this span (not
	// inside a child).
	Events []Event `json:"-"`
	// Children are the nested spans in execution order.
	Children []*Span `json:"-"`

	parent *Span
}

// TotalUnits sums the communication volume of the span's subtree.
func (s *Span) TotalUnits() int64 {
	var total int64
	s.Walk(func(sp *Span) {
		for _, ev := range sp.Events {
			total += ev.Hist.Total
		}
	})
	return total
}

// MaxLoad returns the largest per-server per-round load in the subtree.
func (s *Span) MaxLoad() int {
	m := 0
	s.Walk(func(sp *Span) {
		for _, ev := range sp.Events {
			if ev.Hist.Max > m {
				m = ev.Hist.Max
			}
		}
	})
	return m
}

// Walk visits the span and its descendants preorder.
func (s *Span) Walk(fn func(*Span)) {
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Notes returns the names of the note spans under root in preorder,
// which is the order they were emitted in: the run's decision log.
func Notes(root *Span) []string {
	var out []string
	root.Walk(func(s *Span) {
		if s.Kind == KindNote {
			out = append(out, s.Name)
		}
	})
	return out
}

// Recorder receives the simulator's emissions. Implementations must not
// retain the recv slice past the call (the simulator reuses it).
type Recorder interface {
	// BeginSpan opens a nested span.
	BeginSpan(name string, kind SpanKind, servers int)
	// EndSpan closes the innermost open span.
	EndSpan()
	// Exchange records one charged communication round. recv is the
	// per-server received-load vector, valid only during the call: the
	// simulator reuses it, so a recorder that keeps it must copy it.
	Exchange(op Op, recv []int)
}

// Collector is the Recorder that builds the span tree. It is not safe
// for concurrent use: the simulator emits into it from one goroutine
// only — concurrent Parallel branches record into per-branch Buffers
// that are replayed here in branch order after the block completes.
type Collector struct {
	root *Span
	cur  *Span
	seq  int
}

// NewCollector returns an empty collector with an open root span.
func NewCollector() *Collector {
	root := &Span{Name: "root", Kind: KindRoot}
	return &Collector{root: root, cur: root}
}

// BeginSpan implements Recorder.
func (c *Collector) BeginSpan(name string, kind SpanKind, servers int) {
	s := &Span{Name: name, Kind: kind, Servers: servers, Start: c.seq, End: c.seq, parent: c.cur}
	c.cur.Children = append(c.cur.Children, s)
	c.cur = s
}

// EndSpan implements Recorder. Ending more spans than were begun is a
// no-op at the root.
func (c *Collector) EndSpan() {
	if c.cur.parent != nil {
		c.cur = c.cur.parent
	}
}

// Exchange implements Recorder.
func (c *Collector) Exchange(op Op, recv []int) {
	ev := Event{Op: op, Seq: c.seq, Hist: Summarize(recv), Loads: bucketLoads(recv)}
	c.seq++
	c.cur.Events = append(c.cur.Events, ev)
	for s := c.cur; s != nil; s = s.parent {
		s.End = c.seq
	}
}

// Root finalizes and returns the span tree. Any spans still open are
// closed at the current timeline position.
func (c *Collector) Root() *Span {
	for s := c.cur; s != nil; s = s.parent {
		if s.End < c.seq {
			s.End = c.seq
		}
	}
	return c.root
}
