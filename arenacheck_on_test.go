//go:build arenacheck

package coverpack_test

// arenaCheckEnabled reports whether the arena use-after-release detector
// (relation's arenacheck build tag) is compiled in; the reachability
// gate then type-checks the tagged files.
const arenaCheckEnabled = true
