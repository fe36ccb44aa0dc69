package coverpack

import (
	"coverpack/internal/hashtab"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// This file re-exports the counters of the cross-run memory-recycling
// layer: the arena, hash-table-bucket and exchange-scratch pools that
// recycle simulator working memory across runs. The pools are always
// on. Recycled memory is zeroed or fully overwritten before use, so no
// Report, table or trace depends on what a pool hands out (the
// difftest oracle takes its reference over sentinel-filled arenas).

// PoolStats reports one pool's recycling counters (gets, hits, misses,
// puts, discards). Diagnostics only — never part of a measured result.
type PoolStats = trace.PoolStats

// ArenaPoolStats snapshots the relation arena pool counters.
func ArenaPoolStats() PoolStats { return relation.PoolStats() }

// HashPoolStats snapshots the hash-table bucket pool counters.
func HashPoolStats() PoolStats { return hashtab.PoolStats() }

// SendPoolStats snapshots the engine's exchange-scratch pool counters
// (one get per charged or scattering exchange operation).
func SendPoolStats() PoolStats { return mpc.SendPoolStats() }

// ResetPoolStats zeroes every pool counter (test and benchmark seam;
// the pooled memory itself is left in place).
func ResetPoolStats() {
	relation.ResetPoolStats()
	hashtab.ResetPoolStats()
	mpc.ResetSendPoolStats()
}
