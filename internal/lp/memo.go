package lp

// The package keeps no solve memo: the compiled-plan shape cache
// (internal/plan) memoizes the analyses built from LPs. The names below
// stay only because internal/bench reads them. SimplexRuns is live; the
// other fields always read zero.

// MemoStats is the former solve-memo snapshot.
type MemoStats struct {
	Hits, Misses uint64
	// SimplexRuns counts two-phase simplex executions: every Solve and
	// every IntProblem.Value.
	SimplexRuns uint64
	Entries     int
}

// ResetMemo zeroes the simplex-run counter.
func ResetMemo() { simplexRuns.Store(0) }

// Memo snapshots the counters.
func Memo() MemoStats { return MemoStats{SimplexRuns: simplexRuns.Load()} }
