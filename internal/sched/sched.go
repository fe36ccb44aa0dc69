// Package sched is the run-level sweep scheduler: it executes a list of
// independent experiment cells — one simulator run plus its bound
// computation each — on a bounded worker pool.
//
// The determinism contract is inherited from the engine's "deterministic
// decomposition + ordered merge" pattern, lifted one level up: each cell
// returns its result, cells are claimed in index order, and Run hands
// the results back in cell order once every claimed cell has finished.
// Because cells are independent — they share only immutable inputs —
// every table, trace, and report assembled from the results is
// byte-identical to executing the cells sequentially, for any worker
// count.
package sched

import (
	"runtime"
	"sync"
)

// Run executes the cells on at most workers goroutines and blocks until
// all have finished or one has failed, then returns their results in
// cell order. Negative workers selects runtime.GOMAXPROCS(0); 0 and 1
// run the cells inline on the calling goroutine. A cell hands back its
// result through its return values only and reads no other cell's.
//
// Cells are claimed in index order. After a failure no new cell is
// claimed; cells already running finish, and Run returns no results and
// the error of the lowest-index failed cell — exactly the error a
// sequential pass would have surfaced first.
func Run[T any](cells []func() (T, error), workers int) ([]T, error) {
	mSchedRuns.Inc()
	mSchedCells.Add(uint64(len(cells)))
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu     sync.Mutex
		next   int // index of the next unclaimed cell
		failed bool
		out    = make([]T, len(cells))
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
			v, err := runCell(cells[i])
			out[i] = v
			if err != nil {
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
			return nil, err
		}
	}
	return out, nil
}
