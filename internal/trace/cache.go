package trace

// CacheStats reports one cluster's HashPartition counts in the shape of
// the retired exchange-plan cache's counters, which internal/bench still
// reads. It lives in the trace package so observability layers can
// consume it without importing internal/mpc.
//
// The counters are diagnostics, not accounting: they are excluded from
// Stats, Report, and the span tree.
type CacheStats struct {
	// Hits is always 0: there is no exchange-plan cache.
	Hits uint64 `json:"hits"`
	// Misses counts exchanges that hashed their input.
	Misses uint64 `json:"misses"`
	// PartitionHits counts exchanges elided entirely because the input
	// was already partitioned on the requested key.
	PartitionHits uint64 `json:"partition_hits"`
}

// Lookups is the total number of hash partitions observed.
func (s CacheStats) Lookups() uint64 { return s.Hits + s.Misses + s.PartitionHits }
