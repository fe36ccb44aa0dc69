package mpc

import (
	"os"
	"sync"
	"sync/atomic"

	"coverpack/internal/metrics"
	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// Memory-budget spill placement.
//
// Every exchange is a materialization point: its output fragments are
// fresh arenas that stay live until the algorithm layer drops them.
// WithSpill turns the cluster into a placement policy over those
// arenas — after each exchange the cluster sums the resident bytes of
// every fragment it has produced and, when the sum exceeds the budget,
// parks fragments to size-classed segment files under a private
// per-run spill directory (relation.ParkTo). Readers never notice:
// random access pages a parked relation back in transparently, and
// the external sort reads the segment files directly.
//
// Which fragments park depends on the engine, because parking requires
// exclusive access to the relation:
//
//   - Sequential cluster (workers == 1): exactly one goroutine touches
//     relations, so any tracked fragment is parkable. The policy parks
//     oldest-first — the fragments least likely to be an operand of
//     the next operation — until the resident sum is back under
//     budget.
//   - Parallel cluster (workers > 1): concurrent Parallel branches may
//     be reading, paging in or appending to older fragments, so only
//     the fragments of the exchange that just completed are read and
//     parked (they are still pre-publication: the creating goroutine
//     owns them until the exchange returns). The resident sum is
//     therefore kept as a running total of what each admission left
//     resident — a published fragment is never re-measured, so bytes
//     that a reader pages back in afterwards are not counted and stay
//     resident until Release. This admits every new output at a
//     bounded resident cost without racing the fragments' owners.
//
// Placement is pure policy: parking changes where bytes live, never
// what any operation computes, charges, or records — the spill-on/off
// difftest arms pin reports, trace span trees, and phase tables
// byte-identical. Spill I/O totals are observable via
// relation.SpillStats and the cluster-level retained gauges below, and
// feed the external-memory cost model through em.Params.SpillIOs.

// Process-wide retained-byte gauges, mirrored from the last cluster
// admission so a scrape shows budget occupancy live. Artifact-facing
// numbers come from Cluster.SpillRetained/SpillRetainedPeak instead.
var (
	gSpillRetained     atomic.Int64
	gSpillRetainedPeak atomic.Int64
)

func init() {
	metrics.Default.NewGaugeFunc("coverpack_spill_retained_bytes",
		"Resident bytes of exchange outputs tracked by the last spill-admitting cluster.",
		func() float64 { return float64(gSpillRetained.Load()) })
	metrics.Default.NewGaugeFunc("coverpack_spill_retained_peak_bytes",
		"Peak resident bytes observed across all spill admissions in this process.",
		func() float64 { return float64(gSpillRetainedPeak.Load()) })
}

// SpillRetainedPeakBytes returns the process-wide peak resident sum
// any spill admission observed (the coverpack_spill_retained_peak_bytes
// gauge). Sweep assertions compare it against the per-run budget.
func SpillRetainedPeakBytes() int64 { return gSpillRetainedPeak.Load() }

// ResetSpillRetainedPeak zeroes the process-wide peak gauge (test and
// benchmark seam).
func ResetSpillRetainedPeak() { gSpillRetainedPeak.Store(0); gSpillRetained.Store(0) }

// WithSpill enables spill-to-disk placement for the cluster's exchange
// outputs: segment files go under a private subdirectory of dir
// (created lazily on first admission) and the policy keeps the summed
// resident bytes of tracked fragments at or under budgetBytes.
// A non-positive budget or empty dir leaves spilling off.
// Cluster.Release deletes the subdirectory and every segment file.
func WithSpill(dir string, budgetBytes int64) Option {
	return func(c *Cluster) {
		c.spillBase = dir
		c.spillBudget = budgetBytes
	}
}

// spillState is the cluster's placement-policy state, split out so the
// zero value (spilling off) costs Cluster nothing but a pointer test.
type spillState struct {
	mu      sync.Mutex
	dir     string // private per-run subdir; "" until first admission
	broken  bool   // subdir creation failed; spilling disabled for the run
	tracked []*relation.Relation
	seen    map[*relation.Relation]bool
	parked  []*relation.SegmentedArena
	// retained and peak are artifact-free diagnostics (the budget is
	// enforced on retained; peak is what the sweep assertions check).
	retained int64
	peak     int64
}

// spillOn reports whether this cluster does spill placement at all.
func (c *Cluster) spillOn() bool {
	return c.spillBase != "" && c.spillBudget > 0
}

// spillDir returns the per-run spill subdirectory, creating it on
// first use. Empty when creation failed (spilling disabled for the
// run). Callers hold s.mu.
func (c *Cluster) spillDirLocked(s *spillState) string {
	if s.dir == "" && !s.broken {
		d, err := os.MkdirTemp(c.spillBase, "coverpack-run-*")
		if err != nil {
			s.broken = true
			return ""
		}
		s.dir = d
	}
	return s.dir
}

// spillAdmit runs the placement policy over a completed exchange
// output and returns it unchanged. The fragments are still owned by
// the calling goroutine (pre-publication), so parking them is
// race-free under any engine.
func (g *Group) spillAdmit(d *DistRelation) *DistRelation {
	if d != nil {
		g.cluster.admitFrags(d.Frags)
	}
	return d
}

// spillAdmitAll is spillAdmit over the per-branch outputs of a
// Distribute-family exchange.
func (g *Group) spillAdmitAll(outs []*DistRelation) []*DistRelation {
	for _, d := range outs {
		g.spillAdmit(d)
	}
	return outs
}

// admitFrags tracks freshly materialized fragments and enforces the
// memory budget by parking.
func (c *Cluster) admitFrags(frags []*relation.Relation) {
	if !c.spillOn() {
		return
	}
	s := &c.spill
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.spillDirLocked(s) == "" {
		return
	}
	if s.seen == nil {
		s.seen = make(map[*relation.Relation]bool)
	}
	// Dedup: plan-cache memo hits and identity fast paths can hand the
	// same *Relation back through several exchanges; count it once.
	fresh := make([]*relation.Relation, 0, len(frags))
	for _, f := range frags {
		if f == nil || s.seen[f] {
			continue
		}
		s.seen[f] = true
		s.tracked = append(s.tracked, f)
		fresh = append(fresh, f)
	}
	// Exclusive engine: measure and park oldest-first across everything
	// tracked. Parallel engine: only the pre-publication fragments are
	// safe to touch, on top of the running total.
	resident, parkable := int64(0), s.tracked
	if c.workers > 1 {
		resident, parkable = s.retained, fresh
	}
	for _, f := range parkable {
		resident += f.ArenaBytes()
	}
	for _, f := range parkable {
		if resident <= c.spillBudget {
			break
		}
		resident -= c.parkOneLocked(s, f)
	}
	s.retained = resident
	if resident > s.peak {
		s.peak = resident
	}
	gSpillRetained.Store(resident)
	for {
		p := gSpillRetainedPeak.Load()
		if resident <= p || gSpillRetainedPeak.CompareAndSwap(p, resident) {
			break
		}
	}
}

// parkOneLocked parks one fragment and returns the resident bytes it
// released (0 when it was empty, already parked, or the park failed —
// an I/O failure leaves the fragment resident and correct).
func (c *Cluster) parkOneLocked(s *spillState, f *relation.Relation) int64 {
	b := f.ArenaBytes()
	if b == 0 {
		return 0
	}
	sa, err := f.ParkTo(s.dir)
	if err != nil || sa == nil {
		return 0
	}
	s.parked = append(s.parked, sa)
	return b
}

// releaseSpill deletes every segment file this cluster parked — both
// the original park arenas and any replacement arenas an external sort
// left behind — then removes the per-run subdirectory. Part of
// Cluster.Release, whose contract already invalidates every relation
// the cluster produced.
func (c *Cluster) releaseSpill() {
	s := &c.spill
	s.mu.Lock()
	parked := s.parked
	tracked := s.tracked
	dir := s.dir
	s.parked, s.tracked, s.seen, s.dir = nil, nil, nil, ""
	s.broken = true // no admissions after release
	s.mu.Unlock()
	for _, sa := range parked {
		sa.Remove()
	}
	for _, f := range tracked {
		f.RemoveSpill()
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
	gSpillRetained.Store(0)
}

// SpillRetained returns the resident bytes of tracked exchange outputs
// after the most recent admission (0 when spilling is off): measured
// across all of them under the sequential engine, the running total of
// what admissions left resident under the parallel one.
func (c *Cluster) SpillRetained() int64 {
	c.spill.mu.Lock()
	defer c.spill.mu.Unlock()
	return c.spill.retained
}

// SpillRetainedPeak returns the highest resident sum any admission of
// this cluster observed — the number the sweep assertions compare
// against the budget.
func (c *Cluster) SpillRetainedPeak() int64 {
	c.spill.mu.Lock()
	defer c.spill.mu.Unlock()
	return c.spill.peak
}

// SpillSnapshot folds the process-wide relation spill counters and
// this cluster's retained gauges into the trace diagnostics shape.
func (c *Cluster) SpillSnapshot() trace.SpillStats {
	rc := relation.SpillStats()
	return trace.SpillStats{
		Parks:             rc.Parks,
		PageIns:           rc.PageIns,
		SegmentsWritten:   rc.SegmentsWritten,
		BytesWritten:      rc.BytesWritten,
		BytesRead:         rc.BytesRead,
		HeldBytes:         rc.HeldBytes,
		RetainedBytes:     c.SpillRetained(),
		RetainedPeakBytes: c.SpillRetainedPeak(),
	}
}
