//go:build !arenacheck

package relation

// Without the arenacheck tag the arena hooks hand the arena through.

func checkGet(a []Value) []Value { return a }

func checkPut(a []Value) []Value { return a }
