package mpc

import (
	"sync"

	"coverpack/internal/pool"
	"coverpack/internal/trace"
)

// Exchange scratch: an exchange's bookkeeping — the chunk cut, each
// chunk's destination ids and count-then-cursor vector, the recv vector,
// the routers' per-chunk state — is dead once its round is charged. One
// xrun holds it all; an operation takes one before routing and puts it
// back right after chargeRound, so an exchange allocates only what it
// returns. xruns recycle through a process-wide pool. No recorder keeps
// recv (trace.Recorder.Exchange) and no output aliases the scratch;
// every vector is cleared or fully overwritten before it is read.
// Vectors over scratchCap elements are dropped at the put, except the
// destination-id vectors: those are as long as the exchange's input, so
// one over scratchCap comes from idPool's size classes and goes back
// there.

// xrun is one exchange's scratch.
type xrun struct {
	cut   []int    // chunk bounds: chunk ci is input rows cut[ci] to cut[ci+1], in server order
	cs    []xchunk // per chunk
	recv  []int    // per destination: tuples received (the charged vector)
	offs  []int    // branch offsets or key positions
	rows  []int    // Spread and DistributeSpread: tuples per branch
	first []int    // Spread and DistributeSpread: each destination's first row in the blob
	one   []int32  // Scatter: the offsets of its one-fragment input
	sums  []int64  // Emit: each server's count
}

// xchunk is one chunk's share of the scratch. Its routing state (src)
// is -1 at the start of every pass 1 that stores ids.
type xchunk struct {
	dst []uint32 // one destination id a tuple, in tuple order; from idPool over scratchCap
	cur []int    // per destination: tuples counted, then the next row to write
	src int      // RouteFan: the source server of the chunk's next row
}

// scratchCap bounds the elements of a vector the pool keeps.
const scratchCap = 1 << 12

var (
	scratchPool   sync.Pool // *xrun
	scratchCounts pool.Counters
	// idPool holds destination-id vectors over scratchCap, in classes up
	// to 16 Mi ids. It keeps no reserve across GC cycles: a 4 MiB one
	// saved 0.3 MiB a pass on acyclic_wc but raised its peak RSS by 7 MiB
	// (2-core VM, Go 1.24).
	idPool = pool.New[uint32](12, 24, 0)
)

// SendPoolStats snapshots the exchange-scratch pool counters: Gets counts
// the scratches taken, one per charged or scattering operation and one
// per Emit on the worker pool.
func SendPoolStats() trace.PoolStats { return scratchCounts.Stats() }

// ResetSendPoolStats zeroes the exchange-scratch pool counters (test seam).
func ResetSendPoolStats() { scratchCounts.Reset() }

// getScratch returns a scratch, recycled when the pool has one.
func getScratch() *xrun {
	x, _ := scratchPool.Get().(*xrun)
	scratchCounts.Got(x != nil)
	if x == nil {
		x = new(xrun)
	}
	return x
}

// putScratch returns x to the pool without its vectors over scratchCap
// elements or any view of them; the destination-id vectors over
// scratchCap go back to idPool. The caller must not use x afterwards.
func putScratch(x *xrun) {
	x.cut, x.recv, x.offs, x.rows, x.first = keep(x.cut), keep(x.recv), keep(x.offs), keep(x.rows), keep(x.first)
	x.one, x.cs, x.sums = keep(x.one), keep(x.cs), keep(x.sums)
	for i, c := range x.cs[:cap(x.cs)] {
		if cap(c.dst) > scratchCap {
			idPool.Put(c.dst)
		}
		x.cs[:cap(x.cs)][i] = xchunk{dst: keep(c.dst), cur: keep(c.cur)}
	}
	scratchCounts.Returned(true)
	scratchPool.Put(x)
}

// keep returns s emptied, or nil when it is too large to pool.
func keep[T any](s []T) []T {
	if cap(s) > scratchCap {
		return nil
	}
	return s[:0]
}

// ids returns c's destination-id vector emptied, with capacity for at
// least n ids: its own when it is large enough, else one borrowed from
// idPool when n is over scratchCap, else a new one.
func (c *xchunk) ids(n int) []uint32 {
	switch {
	case cap(c.dst) >= n:
		return c.dst[:0]
	case n > scratchCap:
		return idPool.Get(n)
	}
	return make([]uint32, 0, max(n, 2*cap(c.dst)))
}

// sized returns s at length n, reusing its storage when it is large
// enough. The contents are stale: the caller overwrites or clears them.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// zeroed returns s at length n, all zeros.
func zeroed[T any](s []T, n int) []T {
	s = sized(s, n)
	clear(s)
	return s
}
