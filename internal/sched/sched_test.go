package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// squares returns n cells, cell i returning i*i.
func squares(n int) []func() (int64, error) {
	cells := make([]func() (int64, error), n)
	for i := range cells {
		cells[i] = func() (int64, error) { return int64(i) * int64(i), nil }
	}
	return cells
}

// checkSquares checks that Run returned n results, result i being i*i.
func checkSquares(t *testing.T, out []int64, err error, n int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("%d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v != int64(i)*int64(i) {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}

// barrierCells returns w cells that each return nil only once all w are
// running at the same time. A cell that waits longer than timeout gives
// up with an error, so a pool narrower than w fails instead of hanging.
func barrierCells(w int, timeout time.Duration) []func() (int, error) {
	var arrived atomic.Int64
	all := make(chan struct{})
	cells := make([]func() (int, error), w)
	for i := range cells {
		cells[i] = func() (int, error) {
			if arrived.Add(1) == int64(w) {
				close(all)
			}
			select {
			case <-all:
				return i, nil
			case <-time.After(timeout):
				return 0, fmt.Errorf("cell %d: %d of %d cells running at once after %v", i, arrived.Load(), w, timeout)
			}
		}
	}
	return cells
}

// peakCells returns n cells that record in peak the most cells ever seen
// running at once.
func peakCells(n int, peak *atomic.Int64) []func() (int, error) {
	var running atomic.Int64
	cells := make([]func() (int, error), n)
	for i := range cells {
		cells[i] = func() (int, error) {
			cur := running.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			running.Add(-1)
			return i, nil
		}
	}
	return cells
}

// TestSequentialMatchesConcurrent is the scheduler's determinism core:
// the results come back in cell order for every worker count. CI runs
// this test under -race to certify the concurrent claim path.
func TestSequentialMatchesConcurrent(t *testing.T) {
	const n = 100
	for _, w := range []int{1, 2, 4, 8} {
		out, err := Run(squares(n), w)
		checkSquares(t, out, err, n)
	}
}

// TestBarrierReleasesOnlyWithAllWorkers: w workers run w cells at once —
// a barrier that needs all w running releases — and the same barrier
// under w-1 workers fails after its bounded wait.
func TestBarrierReleasesOnlyWithAllWorkers(t *testing.T) {
	for _, w := range []int{2, 4} {
		if _, err := Run(barrierCells(w, 10*time.Second), w); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if _, err := Run(barrierCells(w, 50*time.Millisecond), w-1); err == nil {
			t.Fatalf("workers=%d: a barrier of %d cells released", w-1, w)
		}
	}
}

// TestPeakWithinWorkers: no more than workers cells ever run at once.
func TestPeakWithinWorkers(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5} {
		var peak atomic.Int64
		if _, err := Run(peakCells(40, &peak), w); err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p < 1 || p > int64(w) {
			t.Fatalf("workers=%d: peak %d cells running at once", w, p)
		}
	}
}

// TestNegativeWorkersIsGOMAXPROCS: workers < 0 sizes the pool at
// GOMAXPROCS — a barrier of that many cells releases, and the peak never
// exceeds it.
func TestNegativeWorkersIsGOMAXPROCS(t *testing.T) {
	const procs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if _, err := Run(barrierCells(procs, 10*time.Second), -1); err != nil {
		t.Fatal(err)
	}
	var peak atomic.Int64
	if _, err := Run(peakCells(30, &peak), -1); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > procs {
		t.Fatalf("workers=-1 with GOMAXPROCS=%d: peak %d cells running at once", procs, p)
	}
}

// TestEmptyAndSingle: an empty list and a pool wider than the list both
// work.
func TestEmptyAndSingle(t *testing.T) {
	for _, w := range []int{-1, 0, 1, 4} {
		if out, err := Run[int](nil, w); err != nil || len(out) != 0 {
			t.Fatalf("empty run, workers=%d: %v, %v", w, out, err)
		}
	}
	out, err := Run(squares(1), 4)
	checkSquares(t, out, err, 1)
	if _, err := Run(barrierCells(3, 10*time.Second), 8); err != nil {
		t.Fatalf("3 cells on 8 workers: %v", err)
	}
}

// TestDefaultWorkersSequential: workers 0 runs the cells one at a time.
func TestDefaultWorkersSequential(t *testing.T) {
	out, err := Run(squares(10), 0)
	checkSquares(t, out, err, 10)
	var peak atomic.Int64
	if _, err := Run(peakCells(10, &peak), 0); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("workers=0: peak %d cells running at once, want 1", p)
	}
}

// TestErrorStopsAdmissionAndReportsLowestIndex: a later-index cell that
// fails first still yields the lowest-index error — the error a
// sequential pass would surface first — and no cell is claimed after
// both failures.
func TestErrorStopsAdmissionAndReportsLowestIndex(t *testing.T) {
	errA := errors.New("cell 3 failed")
	errB := errors.New("cell 5 failed")
	var after atomic.Int64
	fiveFailed := make(chan struct{})
	cells := make([]func() (int, error), 30)
	for i := range cells {
		cells[i] = func() (int, error) {
			switch {
			case i == 3:
				// Hold the failure until cell 5's error is in, so the
				// lowest-index-wins rule is actually exercised.
				select {
				case <-fiveFailed:
					return 0, errA
				case <-time.After(10 * time.Second):
					return 0, errors.New("cell 5 never ran alongside cell 3")
				}
			case i == 5:
				defer close(fiveFailed)
				return 0, errB
			case i > 5:
				after.Add(1)
			}
			return i, nil
		}
	}
	if out, err := Run(cells, 2); !errors.Is(err, errA) || out != nil {
		t.Fatalf("got %v, error %v; want no results and lowest-index error %v", out, err, errA)
	}
	// With 2 workers, one holds cell 3 while the other reaches cell 5;
	// each records its failure before it claims again.
	if n := after.Load(); n != 0 {
		t.Fatalf("%d cells after index 5 ran; admission did not stop on failure", n)
	}
}

// TestSequentialErrorShortCircuits mirrors the sequential engine: the
// first error stops the pass immediately.
func TestSequentialErrorShortCircuits(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{0, 1} {
		ran := 0
		cells := []func() (int, error){
			func() (int, error) { ran++; return 0, nil },
			func() (int, error) { ran++; return 0, boom },
			func() (int, error) { ran++; return 0, nil },
		}
		if _, err := Run(cells, w); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want %v", w, err, boom)
		}
		if ran != 2 {
			t.Fatalf("workers=%d: %d cells ran, want 2 (stop at first error)", w, ran)
		}
	}
}
