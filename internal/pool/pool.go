// Package pool recycles []T buffers across simulator runs.
//
// A sweep executes many runs back to back, and every run grows the same
// shapes of buffer: exchange slab blobs, kernel scratch, hash-table slot
// arrays and key arenas. A Pool files each released buffer under the
// power-of-two capacity class it fills and hands it out again to the
// next request that class covers, so the 2nd..Nth run of a sweep
// reaches an allocation steady state instead of re-growing every buffer
// from zero.
//
// Ownership. A buffer may be Put only by an owner that can prove no live
// value still references any part of it, and only whole: a sub-slice of
// a buffer others still use must never be released.
//
// Determinism. A Get returns a zero-length buffer whose contents beyond
// length 0 are stale; callers append to it or overwrite it before any
// read, and no observable artifact depends on a slice's capacity, so
// recycling cannot change a report, a load or a trace. The Counters are
// diagnostics only.
package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"coverpack/internal/trace"
)

// Counters counts one pool's traffic: every get is a hit or a miss, and
// every non-nil buffer handed back is kept or discarded.
type Counters struct {
	gets, hits, misses, puts, discards atomic.Uint64
}

// Got counts one get, a hit when a recycled buffer answered it.
func (c *Counters) Got(hit bool) {
	c.gets.Add(1)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Returned counts one buffer handed back, kept for reuse or discarded.
func (c *Counters) Returned(kept bool) {
	if kept {
		c.puts.Add(1)
	} else {
		c.discards.Add(1)
	}
}

// Stats snapshots the counters.
func (c *Counters) Stats() trace.PoolStats {
	return trace.PoolStats{
		Gets:     c.gets.Load(),
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Puts:     c.puts.Load(),
		Discards: c.discards.Load(),
	}
}

// Reset zeroes the counters; the pooled buffers stay.
func (c *Counters) Reset() {
	c.gets.Store(0)
	c.hits.Store(0)
	c.misses.Store(0)
	c.puts.Store(0)
	c.discards.Store(0)
}

// Pool recycles []T buffers in capacity classes 1<<minBits ..
// 1<<maxBits: class k holds buffers of capacity at least 1<<(minBits+k).
// Requests above the largest class, and buffers below the smallest or
// above the largest, are left to the allocator.
//
// Each class is a sync.Pool, optionally fronted by a bounded reserve.
// A sync.Pool drops what it holds at every second GC cycle, and a
// process whose live heap sits at the runtime's 4 MiB floor (a sweep
// over small instances: a few MB live, tens of MB allocated per pass)
// starts a cycle every few milliseconds, so its buffers are freed
// between one run's release and the next run's get and the pool never
// warms up. The reserve keeps up to a fixed number of elements of
// released buffers alive across cycles, last in first out per class;
// whatever does not fit goes to the sync.Pools, so a run with large
// buffers still hands them back to the collector.
type Pool[T any] struct {
	Counters
	minBits, maxBits int
	classes          []sync.Pool // *[]T holding a buffer

	// handles holds the empty *[]T handles that gets leave behind. A
	// sync.Pool holds a buffer in a handle; a get takes the buffer out
	// and parks its handle here, and a put stores its buffer in a parked
	// handle, so a steady-state put boxes nothing. Only after a
	// collection has emptied this pool does a put allocate a handle.
	handles sync.Pool

	limit   int // reserve bound, in elements; 0: no reserve
	mu      sync.Mutex
	reserve [][][]T // per class, last in first out
	used    int     // Σ cap over reserve, ≤ limit
}

// New returns a pool with capacity classes 1<<minBits .. 1<<maxBits
// and a reserve of up to reserve elements (0 for none).
func New[T any](minBits, maxBits, reserve int) *Pool[T] {
	n := maxBits - minBits + 1
	return &Pool[T]{
		minBits: minBits, maxBits: maxBits,
		classes: make([]sync.Pool, n),
		limit:   reserve,
		reserve: make([][][]T, n),
	}
}

// Get returns a zero-length buffer with capacity ≥ n, recycled when the
// pool holds one of n's class, or nil when n ≤ 0. Contents beyond length
// 0 are stale: the caller appends or overwrites before reading.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	b := max(bits.Len(uint(n-1)), p.minBits) // ⌈log₂ n⌉
	if b > p.maxBits {
		p.Got(false)
		return make([]T, 0, n)
	}
	cl := b - p.minBits
	if s := p.reserveGet(cl); s != nil {
		p.Got(true)
		return s
	}
	if v := p.classes[cl].Get(); v != nil {
		p.Got(true)
		h := v.(*[]T)
		s := (*h)[:0]
		*h = nil
		p.handles.Put(h)
		return s
	}
	p.Got(false)
	return make([]T, 0, 1<<b)
}

// Put hands s back for reuse, filed under the largest class its
// capacity fills, so any buffer a Get takes from class k has capacity
// ≥ 1<<(minBits+k). A buffer outside the classes is discarded. The
// caller must own all of s's backing array and not use it afterwards.
func (p *Pool[T]) Put(s []T) {
	if s == nil {
		return
	}
	b := bits.Len(uint(cap(s))) - 1 // ⌊log₂ cap⌋
	if b < p.minBits || b > p.maxBits {
		p.Returned(false)
		return
	}
	p.Returned(true)
	cl := b - p.minBits
	if p.reservePut(cl, s[:0]) {
		return
	}
	h, _ := p.handles.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.classes[cl].Put(h)
}

func (p *Pool[T]) reserveGet(cl int) []T {
	if p.limit == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.reserve[cl]
	if len(st) == 0 {
		return nil
	}
	s := st[len(st)-1]
	st[len(st)-1] = nil
	p.reserve[cl] = st[:len(st)-1]
	p.used -= cap(s)
	return s
}

func (p *Pool[T]) reservePut(cl int, s []T) bool {
	if p.limit == 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.used+cap(s) > p.limit {
		return false
	}
	p.reserve[cl] = append(p.reserve[cl], s)
	p.used += cap(s)
	return true
}

// Reserved reports the reserve's accounted size and the summed capacity
// of the buffers it holds, in elements; the two agree and stay within
// the bound New was given.
func (p *Pool[T]) Reserved() (accounted, held int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.reserve {
		for _, s := range st {
			held += cap(s)
		}
	}
	return p.used, held
}
