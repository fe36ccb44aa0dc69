package mpc

import (
	"sync"
	"sync/atomic"

	"coverpack/internal/trace"
)

// Send-list pooling.
//
// An exchange over several chunks (exchange.go) needs one
// per-destination count-then-cursor vector per chunk. Those vectors are
// dead as soon as the scatter pass ends — unlike the summed recv vector,
// which the plan cache may retain — so they recycle through a
// process-wide pool across chunks, exchanges, and runs. A one-chunk
// exchange counts straight into its recv vector and never comes here.
//
// Determinism: vectors are zeroed on acquisition, so a recycled vector
// is indistinguishable from a fresh make. Counters are trace.PoolStats
// diagnostics only.

var (
	// sendPoolingOff is inverted so the zero value means "enabled".
	sendPoolingOff atomic.Bool
	sendPool       sync.Pool // *[]int

	sendGets     atomic.Uint64
	sendHits     atomic.Uint64
	sendMisses   atomic.Uint64
	sendPuts     atomic.Uint64
	sendDiscards atomic.Uint64
)

// SetSendPooling toggles send-list recycling globally. Off, the getters
// degrade to plain make — the pre-pooling behavior.
func SetSendPooling(on bool) { sendPoolingOff.Store(!on) }

// SendPoolingEnabled reports the current toggle state.
func SendPoolingEnabled() bool { return !sendPoolingOff.Load() }

// SendPoolStats snapshots the send-list pool counters.
func SendPoolStats() trace.PoolStats {
	return trace.PoolStats{
		Gets:     sendGets.Load(),
		Hits:     sendHits.Load(),
		Misses:   sendMisses.Load(),
		Puts:     sendPuts.Load(),
		Discards: sendDiscards.Load(),
	}
}

// ResetSendPoolStats zeroes the send-list pool counters (test seam).
func ResetSendPoolStats() {
	sendGets.Store(0)
	sendHits.Store(0)
	sendMisses.Store(0)
	sendPuts.Store(0)
	sendDiscards.Store(0)
}

// getSendList returns a zeroed vector of length n, recycled when a
// pooled one is large enough. The pointer is what the pool holds: it
// travels with the vector so that putting it back allocates nothing.
func getSendList(n int) *[]int {
	if !sendPoolingOff.Load() {
		sendGets.Add(1)
		if p, _ := sendPool.Get().(*[]int); p != nil && cap(*p) >= n {
			sendHits.Add(1)
			*p = (*p)[:n]
			clear(*p)
			return p
		}
		sendMisses.Add(1)
	}
	s := make([]int, n)
	return &s
}

// putSendList returns a vector to the pool. The caller must not use it
// afterwards.
func putSendList(p *[]int) {
	if sendPoolingOff.Load() {
		sendDiscards.Add(1)
		return
	}
	sendPuts.Add(1)
	sendPool.Put(p)
}
