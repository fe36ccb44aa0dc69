//go:build arenacheck

package relation

import (
	"fmt"
	"sync"
	"unsafe"
)

// The use-after-release detector, built with -tags arenacheck. Every
// arena is filled with arenaSentinel over its whole capacity when the
// pool hands it out and again when it comes back, so a kernel that
// reads a value it did not write, or a view read after its arena went
// back, carries the sentinel into its output. A put of an arena the
// pool already holds panics: pooled records the first element's
// address of every arena between its put and the next get of it. The
// addresses are plain integers, so a pooled arena the collector frees
// is not kept alive by the set; a get of the same address, hit or miss,
// clears its entry.

// arenaSentinel fills every arena the pool hands out or takes back. No
// instance holds it.
const arenaSentinel = Value(-0x5eed5eed5eed5eed)

var (
	pooledMu sync.Mutex
	pooled   = map[uintptr]struct{}{}
)

func arenaKey(a []Value) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(a[:1]))) }

func fillSentinel(a []Value) {
	a = a[:cap(a)]
	for i := range a {
		a[i] = arenaSentinel
	}
}

func checkGet(a []Value) []Value {
	if cap(a) == 0 {
		return a
	}
	pooledMu.Lock()
	delete(pooled, arenaKey(a))
	pooledMu.Unlock()
	fillSentinel(a)
	return a
}

func checkPut(a []Value) []Value {
	if cap(a) == 0 {
		return a
	}
	k := arenaKey(a)
	pooledMu.Lock()
	_, twice := pooled[k]
	pooled[k] = struct{}{}
	pooledMu.Unlock()
	if twice {
		panic(fmt.Sprintf("relation: arena at %#x put back twice", k))
	}
	fillSentinel(a)
	return a
}
