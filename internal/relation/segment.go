package relation

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Spill-to-disk arena segments.
//
// A resident relation stores its rows in one flat []Value arena
// (relation.go). Under a memory budget the arena can instead be held as
// a SegmentedArena: a sequence of size-classed segments, each of which
// is either resident (a flat []Value, exactly the in-memory layout) or
// spilled to its own on-disk file. Spilled segments serialize every
// value with the sort-order-preserving big-endian encoding the radix
// kernel already uses for bucketing (radix.go): the sign bit is flipped
// so two's-complement int64 order equals unsigned big-endian byte
// order, which is what lets external sorted runs be compared and merged
// without decoding more than the head row of each run.
//
// Readers never observe the difference: a parked relation streams back
// through the chunk-iterator contract (segIterator below yields
// ≤ chunkRows-row chunks, resident segments as zero-copy views
// and spilled segments decoded into one pooled scratch arena), and any
// random-access path (Row, Data, sorts below the run threshold) pages
// the whole arena back in first (relation.go pageIn).
//
// File lifetime. Segment files are written once and never mutated, so
// concurrent readers need no locking against each other. Paging a
// relation back in does NOT delete its files — an iterator obtained
// before the page-in may still be streaming them — cleanup is the
// owner's job: the mpc.Cluster gives each run a private subdirectory of
// the spill dir and removes the whole subdirectory in Release, and
// tests own their SegmentedArenas directly (Remove). Determinism: the
// segment round-trip is exact, so spilling on/off cannot change any
// report, trace, or table byte; the spill difftest arms pin this.

// spillSegValues is the target size of one segment in values: 1<<16
// values = 512 KiB of 8-byte values, aligning a full segment with one
// mid-range arena pool size class so paged-in segments recycle cleanly.
// A segment holds floor(spillSegValues/arity) whole rows (at least 1).
const spillSegValues = 1 << 16

// segRowsFor returns the rows per segment for the given arity.
func segRowsFor(arity int) int {
	if arity <= 0 {
		return spillSegValues
	}
	n := spillSegValues / arity
	if n < 1 {
		n = 1
	}
	return n
}

// spillMagic heads every segment file: format name + version.
const spillMagic = "CPSEG1\x00\x00"

// spillHeaderLen is magic + arity + rows, all 8 bytes each.
const spillHeaderLen = len(spillMagic) + 16

// encodeValue maps a value to the sort-order-preserving unsigned form:
// flipping the sign bit makes unsigned byte order equal int64 order
// (the same transform radixOrder applies before bucketing).
func encodeValue(v Value) uint64 { return uint64(v) ^ (1 << 63) }

// decodeValue inverts encodeValue.
func decodeValue(u uint64) Value { return Value(u ^ (1 << 63)) }

// spillFile is one spilled segment: rows*arity values encoded
// big-endian after a fixed header. Files are immutable once written.
type spillFile struct {
	path  string
	arity int
	rows  int
	bytes int64 // total file size including header
}

// writeSpillFile serializes rows*arity values (row-major, exactly the
// arena layout) into a fresh file under dir.
func writeSpillFile(dir string, data []Value, rows, arity int) (*spillFile, error) {
	f, err := os.CreateTemp(dir, "coverpack-seg-*.cpseg")
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var hdr [spillHeaderLen]byte
	copy(hdr[:], spillMagic)
	binary.BigEndian.PutUint64(hdr[len(spillMagic):], uint64(arity))
	binary.BigEndian.PutUint64(hdr[len(spillMagic)+8:], uint64(rows))
	if _, err := w.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	var buf [8]byte
	for _, v := range data[:rows*arity] {
		binary.BigEndian.PutUint64(buf[:], encodeValue(v))
		if _, err := w.Write(buf[:]); err != nil {
			f.Close()
			os.Remove(f.Name())
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	sf := &spillFile{path: f.Name(), arity: arity, rows: rows,
		bytes: int64(spillHeaderLen) + 8*int64(rows)*int64(arity)}
	noteSegmentWritten(uint64(sf.bytes))
	return sf, nil
}

// open opens the file positioned past the header, validating it.
func (sf *spillFile) open() (*os.File, error) {
	f, err := os.Open(sf.path)
	if err != nil {
		return nil, err
	}
	var hdr [spillHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("relation: segment %s: short header: %w", sf.path, err)
	}
	if string(hdr[:len(spillMagic)]) != spillMagic {
		f.Close()
		return nil, fmt.Errorf("relation: segment %s: bad magic", sf.path)
	}
	arity := int(binary.BigEndian.Uint64(hdr[len(spillMagic):]))
	rows := int(binary.BigEndian.Uint64(hdr[len(spillMagic)+8:]))
	if arity != sf.arity || rows != sf.rows {
		f.Close()
		return nil, fmt.Errorf("relation: segment %s: header (arity=%d rows=%d) != expected (arity=%d rows=%d)",
			sf.path, arity, rows, sf.arity, sf.rows)
	}
	return f, nil
}

// readInto decodes the whole segment into dst (len rows*arity).
func (sf *spillFile) readInto(dst []Value) error {
	f, err := sf.open()
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var buf [8]byte
	for i := range dst[:sf.rows*sf.arity] {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("relation: segment %s: truncated at value %d: %w", sf.path, i, err)
		}
		dst[i] = decodeValue(binary.BigEndian.Uint64(buf[:]))
	}
	noteSegmentRead(uint64(8 * sf.rows * sf.arity))
	return nil
}

// remove deletes the segment file (best effort; the file may already
// be gone if the owning directory was removed wholesale).
func (sf *spillFile) remove() {
	if os.Remove(sf.path) == nil {
		noteSegmentRemoved(uint64(sf.bytes))
	}
}

// segment is one unit of a SegmentedArena: resident (data non-nil,
// exactly the flat arena layout) or spilled (file non-nil). Exactly one
// of the two is set, except arity-0 segments which are pure row counts.
type segment struct {
	data []Value
	file *spillFile
	rows int
}

// SegmentedArena is a relation arena built from size-classed segments
// that individually page to disk. It is the storage form of a parked
// relation (Relation.ParkTo) and of external-sort runs (extsort.go).
// The arena is immutable once built; methods that read it are safe for
// concurrent use.
type SegmentedArena struct {
	schema Schema
	arity  int
	rows   int
	dir    string // directory spilled segments are written to
	segs   []segment
}

// NewSegmentedArena returns an empty arena whose spilled segments go to
// dir.
func NewSegmentedArena(schema Schema, dir string) *SegmentedArena {
	return &SegmentedArena{schema: schema, arity: schema.Len(), dir: dir}
}

// Schema returns the arena's schema.
func (sa *SegmentedArena) Schema() Schema { return sa.schema }

// Rows returns the total row count across segments.
func (sa *SegmentedArena) Rows() int { return sa.rows }

// Dir returns the directory spilled segments are written to.
func (sa *SegmentedArena) Dir() string { return sa.dir }

// appendResident adds one resident segment viewing data (not copied;
// the arena must outlive any caller mutation of it).
func (sa *SegmentedArena) appendResident(data []Value, rows int) {
	sa.segs = append(sa.segs, segment{data: data, rows: rows})
	sa.rows += rows
}

// appendSpilled adds one already-written segment file.
func (sa *SegmentedArena) appendSpilled(sf *spillFile) {
	sa.segs = append(sa.segs, segment{file: sf, rows: sf.rows})
	sa.rows += sf.rows
}

// SpillAll writes every resident segment to disk, dropping the
// in-memory copies. Arity-0 segments are pure counts and stay as they
// are.
func (sa *SegmentedArena) SpillAll() error {
	for i := range sa.segs {
		s := &sa.segs[i]
		if s.data == nil || sa.arity == 0 {
			continue
		}
		sf, err := writeSpillFile(sa.dir, s.data, s.rows, sa.arity)
		if err != nil {
			return err
		}
		s.file = sf
		s.data = nil
	}
	return nil
}

// ResidentBytes returns the bytes of value data currently held in
// memory by resident segments.
func (sa *SegmentedArena) ResidentBytes() int64 {
	var n int64
	for i := range sa.segs {
		if sa.segs[i].data != nil {
			n += 8 * int64(sa.segs[i].rows) * int64(sa.arity)
		}
	}
	return n
}

// SpilledBytes returns the on-disk bytes (including headers) of spilled
// segments.
func (sa *SegmentedArena) SpilledBytes() int64 {
	var n int64
	for i := range sa.segs {
		if sa.segs[i].file != nil {
			n += sa.segs[i].file.bytes
		}
	}
	return n
}

// readInto decodes the whole arena into dst (len rows*arity), segments
// in order.
func (sa *SegmentedArena) readInto(dst []Value) error {
	off := 0
	for i := range sa.segs {
		s := &sa.segs[i]
		n := s.rows * sa.arity
		if s.data != nil {
			copy(dst[off:off+n], s.data)
		} else if s.file != nil {
			if err := s.file.readInto(dst[off : off+n]); err != nil {
				return err
			}
		}
		off += n
	}
	return nil
}

// Materialize decodes the arena into a fresh fully resident relation
// (pool-drawn arena owned by the result).
func (sa *SegmentedArena) Materialize() (*Relation, error) {
	n := sa.rows * sa.arity
	data := GetArena(n)[:n]
	if err := sa.readInto(data); err != nil {
		PutArena(data[:0])
		return nil, err
	}
	return FromData(sa.schema, data, sa.rows), nil
}

// Remove deletes every spilled segment file. The arena must have no
// live iterators. Safe to call more than once.
func (sa *SegmentedArena) Remove() {
	for i := range sa.segs {
		if sa.segs[i].file != nil {
			sa.segs[i].file.remove()
			sa.segs[i].file = nil
			sa.segs[i].rows = 0 // segment is gone; keep readers honest
		}
	}
}

// Iter streams the arena through the chunk-iterator contract: resident
// segments as zero-copy views, spilled segments decoded into a pooled
// scratch chunk.
func (sa *SegmentedArena) Iter() RowIterator {
	return &segIterator{sa: sa, out: newScratch(sa.arity)}
}

// segIterator is the reader over a SegmentedArena. One
// segment is open at a time; spilled segments are decoded through a
// buffered file reader into the scratch chunk (valid until the next
// Next or Close, per the iterator contract).
type segIterator struct {
	sa     *SegmentedArena
	si     int // current segment index
	row    int // next row within the current segment
	f      *os.File
	br     *bufio.Reader
	out    scratchChunk
	closed bool
}

func (it *segIterator) Schema() Schema { return it.sa.schema }

func (it *segIterator) Next() (Chunk, bool) {
	for it.si < len(it.sa.segs) {
		s := &it.sa.segs[it.si]
		if it.row >= s.rows {
			it.closeFile()
			it.si++
			it.row = 0
			continue
		}
		n := s.rows - it.row
		if n > chunkRows {
			n = chunkRows
		}
		if it.sa.arity == 0 {
			it.row += n
			return Chunk{arity: 0, rows: n}, true
		}
		if s.data != nil {
			lo := it.row * it.sa.arity
			it.row += n
			return Chunk{data: s.data[lo : lo+n*it.sa.arity], arity: it.sa.arity, rows: n}, true
		}
		if it.f == nil {
			f, err := s.file.open()
			if err != nil {
				panic(fmt.Sprintf("relation: parked segment vanished before its owner released it: %v", err))
			}
			it.f = f
			it.br = bufio.NewReaderSize(f, 1<<16)
		}
		it.out.reset()
		it.out.data = it.out.data[:n*it.sa.arity]
		var buf [8]byte
		for i := range it.out.data {
			if _, err := io.ReadFull(it.br, buf[:]); err != nil {
				panic(fmt.Sprintf("relation: truncated spilled segment %s: %v", s.file.path, err))
			}
			it.out.data[i] = decodeValue(binary.BigEndian.Uint64(buf[:]))
		}
		it.out.rows = n
		it.row += n
		noteSegmentRead(uint64(8 * n * it.sa.arity))
		return it.out.chunk(), true
	}
	it.closeFile()
	return Chunk{}, false
}

func (it *segIterator) closeFile() {
	if it.f != nil {
		it.f.Close()
		it.f, it.br = nil, nil
	}
}

func (it *segIterator) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.closeFile()
	it.out.release()
}

// Relation parking.
//
// ParkTo converts a relation's resident arena into a SegmentedArena of
// spilled segments; the relation's identity (schema, row count, version
// stamp, retained key index) is untouched, only the storage form
// changes. The next random-access touch (Row, Data, a mutator, a
// below-threshold sort) transparently pages the whole arena back in;
// streamed consumers (Iter) read the segments from disk in place.
//
// Concurrency contract: ParkTo itself must only be called while no
// other goroutine is accessing the relation — the mpc spill policy
// parks exchange outputs either before they are published to worker
// goroutines or on a sequential cluster. After parking, any number of
// goroutines may read concurrently: the seg pointer is published with
// release/acquire ordering and page-in is serialized under parkMu, so
// readers either see the parked form (and page in under the lock) or
// the fully written resident arena. Tuple views handed out before a
// park stay valid — parking drops the relation's arena reference, it
// never overwrites the old backing array.

// parkMu serializes page-ins process-wide. Page-in is rare (one disk
// read per parked relation touched by a random-access consumer), so a
// single mutex is simpler than per-relation state and keeps the
// double-checked fast path to one atomic load.
var parkMu sync.Mutex

// segArena returns the relation's SegmentedArena, or nil when resident.
func (r *Relation) segArena() *SegmentedArena {
	return (*SegmentedArena)(atomic.LoadPointer(&r.seg))
}

// ensureResident pages a parked relation back in; no-op when resident.
func (r *Relation) ensureResident() {
	if atomic.LoadPointer(&r.seg) != nil {
		r.pageIn()
	}
}

// Parked reports whether the relation's arena currently lives in
// spilled segments.
func (r *Relation) Parked() bool { return atomic.LoadPointer(&r.seg) != nil }

// ArenaBytes returns the resident arena footprint in bytes: 0 while
// parked, len(data)*8 otherwise. This is what the memory-budget spill
// policy sums. Note a slab fragment reports only its own view's bytes;
// the shared slab blob stays allocated until every fragment is dead.
func (r *Relation) ArenaBytes() int64 {
	if r.Parked() {
		return 0
	}
	return 8 * int64(len(r.data))
}

// RemoveSpill deletes the segment files backing r's parked arena, if
// any, without paging in. The parked contents become unreadable, so it
// belongs only to end-of-run cleanup paths whose contract already
// invalidates every relation (mpc.Cluster.Release). Safe to call twice
// and on resident relations.
func (r *Relation) RemoveSpill() {
	if sa := r.segArena(); sa != nil {
		sa.Remove()
	}
}

// ParkTo writes the relation's arena to size-classed segment files
// under dir and drops the resident copy, returning the SegmentedArena
// now backing the relation. Returns (nil, nil) without touching
// anything when the relation is empty or arity-0, or it is already
// parked. The resident arena is dropped, never pooled — it may be a
// slab sub-slice that must only be recycled as a whole blob. The
// caller owns cleanup of the returned arena's files (Remove), normally
// by removing the run's spill subdirectory wholesale after the last
// possible reader is done.
func (r *Relation) ParkTo(dir string) (*SegmentedArena, error) {
	if r.arity == 0 || r.rows == 0 || r.Parked() {
		return nil, nil
	}
	sa := NewSegmentedArena(r.schema, dir)
	segRows := segRowsFor(r.arity)
	for lo := 0; lo < r.rows; lo += segRows {
		hi := lo + segRows
		if hi > r.rows {
			hi = r.rows
		}
		sa.appendResident(r.data[lo*r.arity:hi*r.arity], hi-lo)
	}
	if err := sa.SpillAll(); err != nil {
		sa.Remove()
		return nil, err
	}
	r.data = nil
	atomic.StorePointer(&r.seg, unsafe.Pointer(sa))
	notePark()
	return sa, nil
}

// pageIn restores a parked relation's resident arena from its
// segments. The segment files are left on disk for any concurrently
// streaming iterator; the spill-directory owner removes them later.
func (r *Relation) pageIn() {
	parkMu.Lock()
	defer parkMu.Unlock()
	sa := r.segArena()
	if sa == nil {
		return // another goroutine paged in while we waited
	}
	n := r.rows * r.arity
	data := GetArena(n)[:n]
	if err := sa.readInto(data); err != nil {
		panic(fmt.Sprintf("relation: paging in parked relation: %v", err))
	}
	r.data = data
	notePageIn()
	// Release-store after the data write so readers that load-acquire
	// seg==nil are guaranteed to see the restored arena.
	atomic.StorePointer(&r.seg, nil)
}
