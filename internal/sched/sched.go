// Package sched is the run-level sweep scheduler: it executes a list of
// independent experiment cells — one simulator run plus its bound
// computation each — on a bounded worker pool.
//
// The determinism contract is inherited from the engine's "deterministic
// decomposition + ordered merge" pattern, lifted one level up: each cell
// writes its results into caller-owned slots (closed-over indices into
// result slices), cells are claimed in index order, and the caller reads
// the slots only after Run returns. Because cells are independent — they
// share only immutable inputs — every table, trace, and report assembled
// from the slots is byte-identical to executing the cells sequentially,
// for any worker count.
package sched

import (
	"runtime"
	"sync"
)

// Run executes the cells on at most workers goroutines and blocks until
// all have finished or one has failed. Negative workers selects
// runtime.GOMAXPROCS(0); 0 and 1 run the cells inline on the calling
// goroutine. Each cell must write results only to caller-owned slots and
// must not read any other cell's slots.
//
// Cells are claimed in index order. After a failure no new cell is
// claimed; cells already running finish, and Run returns the error of
// the lowest-index failed cell — exactly the error a sequential pass
// would have surfaced first.
func Run(cells []func() error, workers int) error {
	mSchedRuns.Inc()
	mSchedCells.Add(uint64(len(cells)))
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu     sync.Mutex
		next   int // index of the next unclaimed cell
		failed bool
		errs   = make([]error, len(cells))
	)
	claim := func() {
		for {
			mu.Lock()
			if failed || next == len(cells) {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			if err := runCell(cells[i]); err != nil {
				mu.Lock()
				errs[i], failed = err, true
				mu.Unlock()
			}
		}
	}
	if workers = min(workers, len(cells)); workers <= 1 {
		claim()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				claim()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
