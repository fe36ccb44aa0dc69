package relation

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"unsafe"
)

// External sort: Sort/SortBy on a parked relation without paging the
// whole arena in.
//
// The shape is the classic external merge sort, built from the kernels
// the resident path already has: stream the parked segments, cut the
// input into runs of at most extSortRunRows rows, sort each run with
// the resident stable kernel (radixOrder above radixMinRows), spill each
// sorted run to its own segment file, then merge. Mid-size inputs merge
// by paging the runs into one concatenated arena and handing the run
// boundaries to MergeRuns — the stable k-way galloping merge — while
// inputs past extMergeResidentValues merge fully externally: a k-way
// streaming merge over the run files that writes the sorted output
// straight back to disk as a fresh SegmentedArena, so peak residency
// stays one run plus one output segment.
//
// Byte-identity with the resident path: runs are consecutive input
// ranges sorted stably, and both merges break ties toward the earlier
// run, so the merged order equals a stable sort of the input. The
// external path only triggers when rows > extSortRunRows ≥ radixMinRows
// (for any realistic arity), where the resident reference is the stable
// radix permutation — so the output arena is byte-for-byte what the
// resident sort would have produced. The already-sorted early-out is
// preserved too (one streaming scan), leaving arena and version stamp
// untouched exactly like sortedOnPositions does.

// extSortRunValues is the resident budget of one sort run in values
// (2 MiB at 8-byte values). A var, not a const, so package tests can
// shrink it to force multi-run external sorts on small inputs.
var extSortRunValues = 1 << 18

// extMergeResidentValues is the input size in values up to which runs
// are merged by paging them into one arena for MergeRuns; above it the
// merge streams run files to disk. Test seam like extSortRunValues.
var extMergeResidentValues = 1 << 21

// extSortRunRows returns the rows per run for the given arity.
func extSortRunRows(arity int) int {
	if arity <= 0 {
		return extSortRunValues
	}
	n := extSortRunValues / arity
	if n < 1 {
		n = 1
	}
	return n
}

// compareOn compares two rows on the given positions.
func compareOn(a, b []Value, pos []int) int {
	for _, p := range pos {
		if a[p] != b[p] {
			if a[p] < b[p] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortedOn reports whether the arena's rows are non-decreasing on pos —
// the streaming analog of sortedOnPositions (one pass over the
// segments, one row of carry across chunk boundaries because chunks
// from spilled segments share a scratch arena).
func (sa *SegmentedArena) sortedOn(pos []int) bool {
	if sa.rows < 2 || sa.arity == 0 {
		return true
	}
	it := sa.Iter()
	defer it.Close()
	prev := make([]Value, sa.arity)
	first := true
	for {
		c, ok := it.Next()
		if !ok {
			return true
		}
		for i := 0; i < c.Len(); i++ {
			row := c.Row(i)
			if !first && compareOn(prev, row, pos) > 0 {
				return false
			}
			copy(prev, row)
			first = false
		}
	}
}

// externalSortByPositions sorts a parked relation on pos. Returns false
// when the input fits in a single run — the caller should page in and
// take the resident path (identical semantics, and the only case where
// the resident comparison sort could be unstable is full-row Sort,
// whose ties are indistinguishable). On true the relation has been
// sorted (or found already sorted) without ever holding more than the
// run budget plus merge scratch resident.
func (r *Relation) externalSortByPositions(sa *SegmentedArena, pos []int) bool {
	runRows := extSortRunRows(r.arity)
	if r.rows <= runRows {
		return false
	}
	if sa.sortedOn(pos) {
		return true // arena and version stamp untouched, like the resident early-out
	}

	runs, runLens, err := r.spillSortedRuns(sa, pos, runRows)
	if err != nil {
		panic(fmt.Sprintf("relation: external sort run generation: %v", err))
	}

	if r.rows*r.arity <= extMergeResidentValues {
		r.mergeRunsResident(runs, runLens, pos)
	} else {
		r.mergeRunsStreaming(sa.dir, runs, pos)
	}
	for _, sf := range runs {
		sf.remove()
	}
	// The pre-sort segment files are dead: a sort requires exclusive
	// access, so no iterator over the old arena can be live.
	sa.Remove()
	r.invalidate()
	return true
}

// spillSortedRuns streams the parked arena, sorts consecutive runs of
// at most runRows rows with the resident stable kernel, and spills each
// to its own segment file.
func (r *Relation) spillSortedRuns(sa *SegmentedArena, pos []int, runRows int) ([]*spillFile, []int, error) {
	it := sa.Iter()
	defer it.Close()
	arena := GetArena(runRows * r.arity)
	defer func() { PutArena(arena[:0]) }()
	var runs []*spillFile
	var runLens []int
	flush := func() error {
		rows := len(arena) / r.arity
		if rows == 0 {
			return nil
		}
		run := FromData(r.schema, arena[:rows*r.arity], rows)
		run.sortByPositions(pos, true, nil) // resident; stable for cross-run identity
		sf, err := writeSpillFile(sa.dir, run.data, rows, r.arity)
		if err != nil {
			return err
		}
		runs = append(runs, sf)
		runLens = append(runLens, rows)
		arena = arena[:0] // run.data is either a fresh sorted arena or already on disk
		return nil
	}
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		for i := 0; i < c.Len(); i++ {
			arena = append(arena, c.Row(i)...)
			if len(arena) >= runRows*r.arity {
				if err := flush(); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, nil, err
	}
	return runs, runLens, nil
}

// mergeRunsResident pages the sorted runs into one concatenated arena
// and merges them with the stable k-way galloping MergeRuns kernel,
// leaving the relation resident.
func (r *Relation) mergeRunsResident(runs []*spillFile, runLens []int, pos []int) {
	n := r.rows * r.arity
	data := GetArena(n)[:n]
	off := 0
	for _, sf := range runs {
		end := off + sf.rows*r.arity
		if err := sf.readInto(data[off:end]); err != nil {
			panic(fmt.Sprintf("relation: external sort merge read: %v", err))
		}
		off = end
	}
	merged := FromData(r.schema, data, r.rows).MergeRuns(runLens, pos)
	PutArena(data[:0])
	r.data = merged.data
	// Release-store after the data write (see pageIn).
	atomic.StorePointer(&r.seg, nil)
}

// mergeRunsStreaming merges the sorted run files with a k-way streaming
// merge, writing the output straight to fresh spilled segments: the
// relation stays parked, now on its sorted arena.
func (r *Relation) mergeRunsStreaming(dir string, runs []*spillFile, pos []int) {
	readers := make([]*runReader, 0, len(runs))
	for _, sf := range runs {
		rr, err := newRunReader(sf)
		if err != nil {
			panic(fmt.Sprintf("relation: external sort merge open: %v", err))
		}
		if rr != nil {
			readers = append(readers, rr)
		}
	}
	out := NewSegmentedArena(r.schema, dir)
	segRows := segRowsFor(r.arity)
	buf := GetArena(segRows * r.arity)
	flush := func() {
		rows := len(buf) / r.arity
		if rows == 0 {
			return
		}
		sf, err := writeSpillFile(dir, buf, rows, r.arity)
		if err != nil {
			panic(fmt.Sprintf("relation: external sort merge write: %v", err))
		}
		out.appendSpilled(sf)
		buf = buf[:0]
	}
	for len(readers) > 0 {
		// Smallest head wins; ties go to the earliest reader, and
		// readers are in input-run order, so the merge is stable.
		min := 0
		for i := 1; i < len(readers); i++ {
			if compareOn(readers[i].head, readers[min].head, pos) < 0 {
				min = i
			}
		}
		buf = append(buf, readers[min].head...)
		if len(buf) >= segRows*r.arity {
			flush()
		}
		if !readers[min].advance() {
			readers = append(readers[:min], readers[min+1:]...)
		}
	}
	flush()
	PutArena(buf[:0])
	atomic.StorePointer(&r.seg, unsafe.Pointer(out))
}

// runReader streams one sorted run file a row at a time with a one-row
// lookahead (head).
type runReader struct {
	f    *os.File
	br   *bufio.Reader
	head []Value
	left int
}

// newRunReader opens a run positioned on its first row; a zero-row run
// yields (nil, nil).
func newRunReader(sf *spillFile) (*runReader, error) {
	if sf.rows == 0 {
		return nil, nil
	}
	f, err := sf.open()
	if err != nil {
		return nil, err
	}
	rr := &runReader{f: f, br: bufio.NewReaderSize(f, 1<<16),
		head: make([]Value, sf.arity), left: sf.rows}
	if !rr.advance() {
		return nil, fmt.Errorf("relation: empty run despite %d rows", sf.rows)
	}
	return rr, nil
}

// advance loads the next row into head; false (and closes the file)
// when the run is exhausted.
func (rr *runReader) advance() bool {
	if rr.left == 0 {
		rr.f.Close()
		return false
	}
	var buf [8]byte
	for i := range rr.head {
		if _, err := io.ReadFull(rr.br, buf[:]); err != nil {
			panic(fmt.Sprintf("relation: truncated sort run: %v", err))
		}
		rr.head[i] = decodeValue(binary.BigEndian.Uint64(buf[:]))
	}
	rr.left--
	noteSegmentRead(uint64(8 * len(rr.head)))
	return true
}
