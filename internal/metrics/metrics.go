// Package metrics is the repository's unified telemetry substrate: a
// dependency-free registry of atomic counters, gauges and fixed-bucket
// histograms with a Prometheus text-format exposition writer
// (prometheus.go), a JSON snapshot (json.go), an expvar bridge
// (expvar.go) and an opt-in HTTP debug server (http.go).
//
// The package sits below every other layer — like internal/trace it
// imports nothing from the repository, so the simulator, the scheduler,
// the pools and the CLIs may all emit into it without cycles.
//
// # The no-perturbation contract
//
// Metrics are observation-only. Nothing read from a metric may feed
// back into a computation, so no instrumentation site can change what
// a run computes. The contract is structural, and a source scan in the
// root package pins it: outside this package, the commands and the
// root package's metrics.go, only a package's own metrics.go imports
// this package, and no non-test file reads back a series declared
// there. Recording is always on; there is no switch.
//
// # Hot-path cost
//
// Counter.Add, Gauge.Add and Histogram.Observe are allocation-free:
// one or two atomic adds. Vector lookups (HistogramVec.With) allocate
// only on the first observation of a new label value; instrumentation
// sites that run per exchange hold the resolved *Histogram instead.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric at registration.
type Label struct {
	Key, Value string
}

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 (occupancy, in-flight cost, pool size).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in increasing order; an implicit +Inf bucket catches the rest.
// Observe is allocation-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket ladders here are short (≤ ~20) and the scan
	// beats binary search on them.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshotBuckets returns cumulative counts per bound plus +Inf.
func (h *Histogram) snapshotBuckets() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// ExponentialBuckets returns n upper bounds start, start·factor,
// start·factor², ... — the standard ladder for loads and durations.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("metrics: invalid exponential buckets (%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// collector is the value side of one registered series.
type collector interface{ kind() Kind }

func (*Counter) kind() Kind   { return KindCounter }
func (*Gauge) kind() Kind     { return KindGauge }
func (*Histogram) kind() Kind { return KindHistogram }

// funcVal is a callback-backed counter or gauge: the value is read at
// exposition time (how PoolStats snapshots fold in without touching
// their hot paths).
type funcVal struct {
	k  Kind
	fn func() float64
}

func (f *funcVal) kind() Kind { return f.k }

// series is one (labels, collector) instance of a family.
type series struct {
	labels []Label
	key    string // canonical rendered label string, for sorting/dedup
	col    collector
}

// family groups all series sharing one metric name.
type family struct {
	name, help string
	k          Kind
	series     []*series
}

// Registry is a named set of metric families. All methods are safe for
// concurrent use; registration is expected at init time, mutation on
// hot paths, exposition from the debug server.
type Registry struct {
	name string

	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry with the given name (shown in
// the JSON snapshot and the expvar bridge).
func NewRegistry(name string) *Registry {
	return &Registry{name: name, families: make(map[string]*family)}
}

// Default is the process-wide registry every built-in instrumentation
// site registers on.
var Default = NewRegistry("coverpack")

// Name returns the registry's name.
func (r *Registry) Name() string { return r.name }

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, c, labels)
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, g, labels)
	return g
}

// NewHistogram registers and returns a histogram over the given bucket
// upper bounds (increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s: buckets not increasing at %d", name, i))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), buckets...), counts: make([]atomic.Uint64, len(buckets)+1)}
	r.register(name, help, h, labels)
	return h
}

// NewCounterFunc registers a callback counter: fn is read at exposition
// time and must be non-decreasing between its owner's Reset (it
// typically snapshots an existing counter, e.g. a pool's hit count,
// which a reset function zeroes).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, &funcVal{k: KindCounter, fn: fn}, labels)
}

// NewGaugeFunc registers a callback gauge read at exposition time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, &funcVal{k: KindGauge, fn: fn}, labels)
}

// HistogramVec is a family of histograms keyed by one dynamic label
// (per-phase timings). With memoizes per value, so steady-state lookups
// are one sync.Map read.
type HistogramVec struct {
	r        *Registry
	name     string
	help     string
	buckets  []float64
	labelKey string
	inst     sync.Map   // string -> *Histogram
	mu       sync.Mutex // serializes first-use creation
}

// NewHistogramVec registers a histogram family with one dynamic label.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelKey string) *HistogramVec {
	if !validLabelKey(labelKey) {
		panic(fmt.Sprintf("metrics: invalid label key %q", labelKey))
	}
	// Reserve the family name and kind up front so a clashing scalar
	// registration fails fast even before the first With.
	r.reserve(name, help, KindHistogram)
	return &HistogramVec{r: r, name: name, help: help, buckets: append([]float64(nil), buckets...), labelKey: labelKey}
}

// With returns the histogram for one label value, creating and
// registering it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	if h, ok := v.inst.Load(value); ok {
		return h.(*Histogram)
	}
	// Concurrent first users of one value must register it once: the
	// registry panics on a duplicate series.
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.inst.Load(value); ok {
		return h.(*Histogram)
	}
	h := v.r.NewHistogram(v.name, v.help, v.buckets, Label{v.labelKey, value})
	v.inst.Store(value, h)
	return h
}

// register adds one series, panicking on invalid names, kind mismatches
// within a family, or duplicate (name, labels) registration — all three
// are programming errors worth failing loudly on.
func (r *Registry) register(name, help string, col collector, labels []Label) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("metrics: %s: invalid label key %q", name, l.Key))
		}
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, k: col.kind()}
		r.families[name] = f
	} else if f.k != col.kind() {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.k, col.kind()))
	}
	for _, s := range f.series {
		if s.key == key {
			panic(fmt.Sprintf("metrics: duplicate registration of %s%s", name, key))
		}
	}
	f.series = append(f.series, &series{labels: append([]Label(nil), labels...), key: key, col: col})
}

// reserve creates an empty family (name, kind) without series.
func (r *Registry) reserve(name, help string, k Kind) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		r.families[name] = &family{name: name, help: help, k: k}
		return
	}
	if f.k != k {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.k, k))
	}
}

// sortedFamilies snapshots the families sorted by name, each family's
// series sorted by label key — the deterministic exposition order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		cp := &family{name: f.name, help: f.help, k: f.k, series: append([]*series(nil), f.series...)}
		out = append(out, cp)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	for _, f := range out {
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	}
	return out
}

// labelKey renders labels canonically ("{a=\"x\",b=\"y\"}", sorted by
// key; empty string for no labels).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	s := "{"
	for i, l := range ls {
		if i > 0 {
			s += ","
		}
		s += l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return s + "}"
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
