package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry("t")
	c := r.NewCounter("t_c_total", "c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.NewGauge("t_g", "g")
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	h := r.NewHistogram("t_h", "h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 106.5 {
		t.Errorf("sum = %g, want 106.5", got)
	}
	// Bucket assignment: bounds are inclusive upper bounds.
	cum := h.snapshotBuckets()
	want := []uint64{2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], want[i])
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry("t")
	r.NewCounter("t_dup_total", "")
	mustPanic("duplicate", func() { r.NewCounter("t_dup_total", "") })
	mustPanic("kind mismatch", func() { r.NewGauge("t_dup_total", "") })
	mustPanic("invalid name", func() { r.NewCounter("0bad", "") })
	mustPanic("invalid label key", func() { r.NewCounter("t_l_total", "", Label{"0bad", "v"}) })
	mustPanic("non-increasing buckets", func() { r.NewHistogram("t_h", "", []float64{1, 1}) })
	// Same name with different labels is fine.
	r.NewCounter("t_dup_total", "", Label{"k", "v"})
}

func TestHistogramVecMemoizes(t *testing.T) {
	r := NewRegistry("t")
	v := r.NewHistogramVec("t_phase_seconds", "h", []float64{1}, "phase")
	a1 := v.With("build")
	a2 := v.With("build")
	if a1 != a2 {
		t.Error("With returned different instances for the same value")
	}
	b := v.With("probe")
	if a1 == b {
		t.Error("distinct label values share an instance")
	}
	a1.Observe(0.5)
	if a2.Count() != 1 {
		t.Error("memoized instance did not record")
	}
}

func TestHistogramVecConcurrentFirstUse(t *testing.T) {
	r := NewRegistry("t")
	v := r.NewHistogramVec("t_phase_seconds", "h", []float64{1}, "phase")
	var wg sync.WaitGroup
	hs := make([]*Histogram, 16)
	for i := range hs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hs[i] = v.With("same")
			hs[i].Observe(1)
		}(i)
	}
	wg.Wait()
	for _, h := range hs[1:] {
		if h != hs[0] {
			t.Fatal("race produced distinct instances")
		}
	}
	if hs[0].Count() != 16 {
		t.Errorf("count = %d, want 16", hs[0].Count())
	}
	// Only the first user registered: one series total.
	fams := r.sortedFamilies()
	if len(fams) != 1 || len(fams[0].series) != 1 {
		t.Fatalf("registry holds %d families, series %d; want 1/1", len(fams), len(fams[0].series))
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 4, 4)
	want := []float64{1, 4, 16, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ExponentialBuckets(0,2,3): want panic")
		}
	}()
	ExponentialBuckets(0, 2, 3)
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry("snap")
	r.NewCounter("s_hits_total", "hits", Label{"kind", "a"}).Add(3)
	g := r.NewGauge("s_level", "level")
	g.Add(-2)
	h := r.NewHistogram("s_h", "h", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(100)
	r.NewGaugeFunc("s_fn", "fn", func() float64 { return 1.5 })

	s := r.Snapshot()
	if s.Registry != "snap" {
		t.Errorf("registry name = %q", s.Registry)
	}
	byName := map[string]SnapshotMetric{}
	for _, m := range s.Metrics {
		byName[m.Name] = m
	}
	if m := byName["s_hits_total"]; m.Value == nil || *m.Value != 3 || m.Labels["kind"] != "a" {
		t.Errorf("s_hits_total = %+v", m)
	}
	if m := byName["s_level"]; m.Value == nil || *m.Value != -2 {
		t.Errorf("s_level = %+v", m)
	}
	if m := byName["s_fn"]; m.Value == nil || *m.Value != 1.5 {
		t.Errorf("s_fn = %+v", m)
	}
	m := byName["s_h"]
	if m.Count == nil || *m.Count != 2 || m.Sum == nil || *m.Sum != 100.5 {
		t.Fatalf("s_h = %+v", m)
	}
	// Finite buckets cumulative 1,1; +Inf reconstructed by readers as
	// Count − last finite = 1.
	if len(m.Buckets) != 2 || m.Buckets[0].Count != 1 || m.Buckets[1].Count != 1 {
		t.Errorf("s_h buckets = %+v", m.Buckets)
	}
	if inf := *m.Count - m.Buckets[len(m.Buckets)-1].Count; inf != 1 {
		t.Errorf("+Inf reconstruction = %d, want 1", inf)
	}
}

func TestHistogramSumConcurrent(t *testing.T) {
	r := NewRegistry("t")
	h := r.NewHistogram("t_h", "", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Sum(), 8*1000*0.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}
