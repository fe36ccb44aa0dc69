//go:build race

package mpc

// raceEnabled reports whether the race detector is compiled in; it
// randomizes sync.Pool, so allocation pins skip under it.
const raceEnabled = true
