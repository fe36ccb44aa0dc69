package relation

import "sync/atomic"

// Content-version stamps.
//
// A version stamp is a cheap identity for a relation's exact arena
// content: two loads of Version() return the same value iff no mutator
// ran in between. Stamps are allocated lazily from a process-global
// counter, so they are unique across all relations and all content
// states — a stamp is never reused, which is what lets the mpc
// exchange-plan cache key on (fragment versions, key columns, p)
// without ever producing a stale hit: any mutation zeroes the stamp,
// and re-stamping draws a fresh counter value that no cache entry can
// already hold.
//
// Concurrency: mutating a relation while it is shared across
// goroutines is already illegal under the simulator's purity contract
// (fragments handed out by exchanges are immutable). Within that
// contract the atomics below make Version() itself safe to call
// concurrently on a shared immutable relation: racing stampers both
// draw sound (if different) stamps, and later calls settle on the CAS
// winner. Note that writes through Row views bypass the stamp — only
// package mutators (Add, AddValues, Append, Sort, SortBy) invalidate —
// so view-mutation is only permitted on relations that have never been
// shared or stamped.

// versionCounter is the global stamp source; 0 is reserved for
// "unstamped/dirty".
var versionCounter uint64

// Version returns the relation's content-version stamp, assigning a
// fresh one if the relation is unstamped or was mutated since the last
// call.
func (r *Relation) Version() uint64 {
	if v := atomic.LoadUint64(&r.ver); v != 0 {
		return v
	}
	v := atomic.AddUint64(&versionCounter, 1)
	if atomic.CompareAndSwapUint64(&r.ver, 0, v) {
		return v
	}
	// A concurrent Version() won the stamp; agree with it.
	return atomic.LoadUint64(&r.ver)
}

// invalidate resets the version stamp and drops the retained FirstRows
// list. Mutators call it (cheaply pre-gated on ver != 0) before changing
// the arena.
func (r *Relation) invalidate() {
	atomic.StoreUint64(&r.ver, 0)
	if r.first.Load() != nil {
		r.first.Store(nil)
	}
}
