package trace

import "fmt"

// PoolStats reports the counters of one cross-run memory pool (the
// relation arena pool, the hashtab bucket pools or the exchange
// scratch). Like CacheStats, these are diagnostics only: they never
// influence Reports, Stats, or traces.
//
// A sweep has reached its allocation steady state when Hits ≈ Gets:
// every arena a run asks for is satisfied from a previous run's
// release instead of a fresh allocation.
type PoolStats struct {
	// Gets counts pool lookups (acquire attempts).
	Gets uint64
	// Hits counts lookups satisfied by a recycled buffer.
	Hits uint64
	// Misses counts lookups that fell through to a fresh allocation.
	Misses uint64
	// Puts counts buffers returned to the pool.
	Puts uint64
	// Discards counts returned buffers the pool refused (no size class
	// holds them).
	Discards uint64
}

// HitRate is Hits/Gets, or 0 when no lookups happened.
func (s PoolStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Add returns the element-wise sum of two counter snapshots.
func (s PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{
		Gets:     s.Gets + o.Gets,
		Hits:     s.Hits + o.Hits,
		Misses:   s.Misses + o.Misses,
		Puts:     s.Puts + o.Puts,
		Discards: s.Discards + o.Discards,
	}
}

func (s PoolStats) String() string {
	return fmt.Sprintf("gets=%d hits=%d misses=%d puts=%d discards=%d hit-rate=%.1f%%",
		s.Gets, s.Hits, s.Misses, s.Puts, s.Discards, 100*s.HitRate())
}
