// Package sched is the run-level sweep scheduler: it executes a list of
// independent experiment cells — one simulator run plus its bound
// computation each — on a bounded worker pool with a memory-budget
// admission gate.
//
// The determinism contract is inherited from the engine's "deterministic
// decomposition + ordered merge" pattern, lifted one level up: each Cell
// writes its results into caller-owned slots (closed-over indices into
// result slices), cells are admitted in index order, and the caller
// reads the slots only after Run returns. Because cells are independent
// — they share only immutable inputs — every table, trace, and report
// assembled from the slots is byte-identical to executing the cells
// sequentially, for any worker count and any budget.
//
// The admission gate models memory, not time: a cell's Cost is its
// resident working-set estimate (total input tuples — big AGM instances
// count more), and the gate delays admission while the sum of running
// costs would exceed the budget. A cell costlier than the whole budget
// is admitted alone (the gate waits for the pool to drain), so
// oversized cells degrade to sequential execution instead of
// deadlocking.
package sched

import (
	"runtime"
	"sync"
)

// Cell is one independent unit of sweep work.
type Cell struct {
	// Key names the cell for diagnostics ("table1/line3/optimal/p16").
	Key string
	// Cost is the admission-gate weight (typically total input tuples).
	// Non-positive costs are treated as 1.
	Cost int64
	// Run executes the cell. It must write results only to caller-owned
	// slots and must not read any other cell's slots.
	Run func() error
}

// Options configures one Run.
type Options struct {
	// Workers bounds concurrently running cells. 0 and 1 run the cells
	// sequentially on the calling goroutine; negative selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Budget caps the summed Cost of concurrently running cells; 0 or
	// negative disables the gate.
	Budget int64
}

// Stats reports how one Run executed. Like the engine's SeqFallback, it
// is execution metadata, never part of a measured artifact.
type Stats struct {
	// Cells is the number of cells submitted.
	Cells int
	// Workers is the resolved pool size.
	Workers int
	// MaxConcurrent is the peak number of cells running at once.
	MaxConcurrent int
	// GateWaits counts admissions delayed by the memory budget.
	GateWaits int
	// PeakCost is the highest summed Cost of concurrently running cells.
	PeakCost int64
}

func cellCost(c *Cell) int64 {
	if c.Cost <= 0 {
		return 1
	}
	return c.Cost
}

// Run executes the cells and blocks until all have finished or one has
// failed. On failure it stops admitting new cells, waits for running
// cells, and returns the error of the lowest-index failed cell —
// exactly the error a sequential pass would have surfaced first.
func Run(cells []Cell, o Options) (Stats, error) {
	w := o.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w == 0 {
		w = 1
	}
	if w > len(cells) {
		w = len(cells)
	}
	st := Stats{Cells: len(cells), Workers: w}
	mSchedRuns.Inc()
	mSchedCells.Add(uint64(len(cells)))
	if len(cells) == 0 {
		return st, nil
	}
	if w <= 1 {
		st.Workers = 1
		st.MaxConcurrent = 1
		for i := range cells {
			c := cellCost(&cells[i])
			if c > st.PeakCost {
				st.PeakCost = c
			}
			mSchedRunning.Add(1)
			mSchedInflight.Add(c)
			done := cellTimer()
			err := cells[i].Run()
			if done != nil {
				done()
			}
			mSchedInflight.Add(-c)
			mSchedRunning.Add(-1)
			if err != nil {
				return st, err
			}
		}
		return st, nil
	}

	var (
		mu       sync.Mutex
		gate     = sync.NewCond(&mu)
		next     int   // index of the next unadmitted cell
		inflight int64 // summed cost of running cells
		running  int
		failed   bool
		errs     = make([]error, len(cells))
	)
	worker := func() {
		for {
			mu.Lock()
			waited := false
			for {
				if failed || next >= len(cells) {
					mu.Unlock()
					return
				}
				c := cellCost(&cells[next])
				if o.Budget <= 0 || inflight+c <= o.Budget {
					break
				}
				// Admit unconditionally when nothing is running, so an
				// oversized cell executes alone rather than deadlocking.
				if running == 0 {
					break
				}
				if !waited {
					st.GateWaits++
					mSchedGateWaits.Inc()
					waited = true
				}
				gate.Wait()
			}
			i := next
			next++
			c := cellCost(&cells[i])
			inflight += c
			running++
			if running > st.MaxConcurrent {
				st.MaxConcurrent = running
			}
			if inflight > st.PeakCost {
				st.PeakCost = inflight
			}
			mu.Unlock()

			mSchedRunning.Add(1)
			mSchedInflight.Add(c)
			done := cellTimer()
			err := cells[i].Run()
			if done != nil {
				done()
			}
			mSchedInflight.Add(-c)
			mSchedRunning.Add(-1)

			mu.Lock()
			if err != nil {
				errs[i] = err
				failed = true
			}
			inflight -= c
			running--
			gate.Broadcast()
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}
