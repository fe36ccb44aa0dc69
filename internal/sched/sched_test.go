package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// cellsFilling returns n cells that each write i*i into slot i — the
// caller-owned-slot pattern every experiment uses.
func cellsFilling(out []int64) []Cell {
	cells := make([]Cell, len(out))
	for i := range cells {
		i := i
		cells[i] = Cell{
			Key:  fmt.Sprintf("cell/%d", i),
			Cost: int64(i%7 + 1),
			Run: func() error {
				out[i] = int64(i) * int64(i)
				return nil
			},
		}
	}
	return cells
}

func checkFilled(t *testing.T, out []int64) {
	t.Helper()
	for i, v := range out {
		if v != int64(i)*int64(i) {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestSequentialMatchesConcurrent is the scheduler's determinism core:
// the merged slots are identical for every worker count. CI runs this
// test under -race to certify the concurrent admission path.
func TestSequentialMatchesConcurrent(t *testing.T) {
	const n = 100
	ref := make([]int64, n)
	if _, err := Run(cellsFilling(ref), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		out := make([]int64, n)
		st, err := Run(cellsFilling(out), Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", w, i, out[i], ref[i])
			}
		}
		if st.Cells != n {
			t.Fatalf("workers=%d: stats counted %d cells, want %d", w, st.Cells, n)
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if st, err := Run(nil, Options{Workers: 4}); err != nil || st.Cells != 0 {
		t.Fatalf("empty run: stats=%+v err=%v", st, err)
	}
	out := make([]int64, 1)
	st, err := Run(cellsFilling(out), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, out)
	if st.Workers != 1 {
		t.Fatalf("single cell resolved %d workers, want 1 (clamped to cell count)", st.Workers)
	}
}

func TestDefaultWorkersSequential(t *testing.T) {
	out := make([]int64, 10)
	st, err := Run(cellsFilling(out), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, out)
	if st.Workers != 1 || st.MaxConcurrent != 1 {
		t.Fatalf("Workers=0 should run sequentially, got %+v", st)
	}
}

// TestBudgetGate verifies that the admission gate caps the summed cost
// of concurrently running cells at the budget.
func TestBudgetGate(t *testing.T) {
	const n = 40
	const budget = 10
	var inflight, peak atomic.Int64
	cells := make([]Cell, n)
	out := make([]int64, n)
	for i := range cells {
		i := i
		cost := int64(i%5 + 1)
		cells[i] = Cell{
			Cost: cost,
			Run: func() error {
				cur := inflight.Add(cost)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				out[i] = int64(i) * int64(i)
				inflight.Add(-cost)
				return nil
			},
		}
	}
	st, err := Run(cells, Options{Workers: 8, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	checkFilled(t, out)
	if p := peak.Load(); p > budget {
		t.Fatalf("observed inflight cost %d exceeded budget %d", p, budget)
	}
	if st.PeakCost > budget {
		t.Fatalf("stats PeakCost %d exceeded budget %d", st.PeakCost, budget)
	}
}

// TestOversizedCellRunsAlone: a cell costlier than the whole budget
// must still execute (alone), not deadlock.
func TestOversizedCellRunsAlone(t *testing.T) {
	var running, maxRunning atomic.Int64
	mk := func(cost int64, slot *int64) Cell {
		return Cell{Cost: cost, Run: func() error {
			cur := running.Add(1)
			for {
				p := maxRunning.Load()
				if cur <= p || maxRunning.CompareAndSwap(p, cur) {
					break
				}
			}
			*slot = cost
			running.Add(-1)
			return nil
		}}
	}
	slots := make([]int64, 4)
	cells := []Cell{mk(1, &slots[0]), mk(1000, &slots[1]), mk(1, &slots[2]), mk(1000, &slots[3])}
	st, err := Run(cells, Options{Workers: 4, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 1000, 1, 1000} {
		if slots[i] != want {
			t.Fatalf("slot %d = %d, want %d", i, slots[i], want)
		}
	}
	if st.MaxConcurrent < 1 {
		t.Fatalf("stats recorded no concurrency: %+v", st)
	}
}

// TestErrorStopsAdmissionAndReportsLowestIndex: after a failure no new
// cells are admitted, and the reported error is the lowest-index one —
// the error a sequential pass would surface first.
func TestErrorStopsAdmissionAndReportsLowestIndex(t *testing.T) {
	errA := errors.New("cell 3 failed")
	errB := errors.New("cell 5 failed")
	var after atomic.Int64
	var release sync.WaitGroup
	release.Add(1)
	cells := make([]Cell, 30)
	for i := range cells {
		i := i
		cells[i] = Cell{Run: func() error {
			switch i {
			case 3:
				// Hold the failure until cell 5's error is in, so the
				// lowest-index-wins rule is actually exercised.
				release.Wait()
				return errA
			case 5:
				defer release.Done()
				return errB
			default:
				if i > 5 {
					after.Add(1)
				}
				return nil
			}
		}}
	}
	_, err := Run(cells, Options{Workers: 2})
	if !errors.Is(err, errA) {
		t.Fatalf("got error %v, want lowest-index error %v", err, errA)
	}
	// Cells already admitted when the failure lands still finish; the
	// scheduler just stops admitting new ones. With 2 workers at most a
	// handful of later cells can have been admitted before cell 5 fails.
	if after.Load() == int64(len(cells)-6) {
		t.Fatalf("all later cells ran; admission did not stop on failure")
	}
}

// TestSequentialErrorShortCircuits mirrors the sequential engine: the
// first error stops the pass immediately.
func TestSequentialErrorShortCircuits(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	cells := []Cell{
		{Run: func() error { ran++; return nil }},
		{Run: func() error { ran++; return boom }},
		{Run: func() error { ran++; return nil }},
	}
	_, err := Run(cells, Options{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if ran != 2 {
		t.Fatalf("%d cells ran, want 2 (stop at first error)", ran)
	}
}
