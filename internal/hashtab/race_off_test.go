//go:build !race

package hashtab

// raceEnabled reports whether the race detector is compiled in; it
// makes sync.Pool drop items at random, so pooled allocation counts are
// not pinned under it.
const raceEnabled = false
