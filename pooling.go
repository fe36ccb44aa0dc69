package coverpack

import (
	"coverpack/internal/hashtab"
	"coverpack/internal/mpc"
	"coverpack/internal/relation"
	"coverpack/internal/trace"
)

// This file re-exports the cross-run memory-recycling layer: the arena,
// hash-table-bucket and exchange-scratch pools that recycle simulator
// working memory across runs. Pooling is a pure wall-clock/allocation lever —
// recycled memory is always zeroed or fully overwritten before use, so
// every Report, table and trace is byte-identical with pooling on or
// off (the difftest oracle pins this).

// PoolStats reports one pool's recycling counters (gets, hits, misses,
// puts, discards). Diagnostics only — never part of a measured result.
type PoolStats = trace.PoolStats

// SetPooling toggles every memory pool at once: the relation arena
// pool, the hash-table bucket pools and the engine's exchange-scratch pool.
// Off, every getter degrades to a plain make — the pre-pooling
// behavior. Pooling is on by default.
func SetPooling(on bool) {
	relation.SetPooling(on)
	hashtab.SetPooling(on)
	mpc.SetSendPooling(on)
}

// PoolingEnabled reports whether the pools are active (they toggle
// together through SetPooling; this reads the arena pool's switch).
func PoolingEnabled() bool { return relation.PoolingEnabled() }

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
