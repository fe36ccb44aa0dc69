package relation

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
)

// Spill-to-disk segments are pinned at three layers: the end-to-end
// difftest spill arms (root package) prove whole runs are
// byte-identical with spilling on or off, the mpc package pins the
// placement policy, and this file pins the storage contract itself —
// the key encoding preserves sort order, segment files round-trip
// exactly, parked relations stream and page back in transparently, and
// cleanup is idempotent.

func TestEncodeValuePreservesOrder(t *testing.T) {
	vals := []Value{-1 << 62, -12345, -1, 0, 1, 7, 1 << 40, 1<<62 + 3}
	for i := range vals {
		for j := range vals {
			got := encodeValue(vals[i]) < encodeValue(vals[j])
			want := vals[i] < vals[j]
			if got != want {
				t.Fatalf("encode(%d) < encode(%d) = %v, want %v", vals[i], vals[j], got, want)
			}
			if decodeValue(encodeValue(vals[i])) != vals[i] {
				t.Fatalf("round trip broke %d", vals[i])
			}
		}
	}
	// Property: the encoded order IS the sorted int64 order.
	rng := rand.New(rand.NewSource(11))
	raw := make([]Value, 500)
	for i := range raw {
		raw[i] = Value(rng.Uint64())
	}
	byEnc := slices.Clone(raw)
	sort.Slice(byEnc, func(i, j int) bool { return encodeValue(byEnc[i]) < encodeValue(byEnc[j]) })
	byVal := slices.Clone(raw)
	slices.Sort(byVal)
	if !slices.Equal(byEnc, byVal) {
		t.Fatal("encoded order diverges from value order")
	}
}

func TestSpillFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	data := make([]Value, 37*3)
	for i := range data {
		data[i] = Value(rng.Uint64())
	}
	before := SpillStats()
	sf, err := writeSpillFile(dir, data, 37, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Value, len(data))
	if err := sf.readInto(got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, data) {
		t.Fatal("segment file round trip corrupted values")
	}
	after := SpillStats()
	if after.SegmentsWritten != before.SegmentsWritten+1 {
		t.Fatalf("segments written %d -> %d, want +1", before.SegmentsWritten, after.SegmentsWritten)
	}
	wantBytes := uint64(spillHeaderLen + 8*37*3)
	if after.BytesWritten-before.BytesWritten != wantBytes {
		t.Fatalf("bytes written delta %d, want %d", after.BytesWritten-before.BytesWritten, wantBytes)
	}
	held := after.HeldBytes - before.HeldBytes
	sf.remove()
	sf.remove() // second remove must not double-decrement the gauge
	if d := SpillStats().HeldBytes - before.HeldBytes; d != held-int64(wantBytes) {
		t.Fatalf("held-bytes gauge off after double remove: delta %d", d)
	}
	if _, err := os.Stat(sf.path); !os.IsNotExist(err) {
		t.Fatalf("segment file still on disk: %v", err)
	}
}

func TestSpillFileRejectsCorruptHeader(t *testing.T) {
	dir := t.TempDir()
	sf, err := writeSpillFile(dir, []Value{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.remove()
	// Arity mismatch between file header and expectation.
	bad := &spillFile{path: sf.path, arity: 3, rows: 2}
	if _, err := bad.open(); err == nil {
		t.Fatal("arity-mismatched header accepted")
	}
	// Truncated / garbage magic.
	garbage := filepath.Join(dir, "garbage.cpseg")
	if err := os.WriteFile(garbage, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad = &spillFile{path: garbage, arity: 2, rows: 2}
	if _, err := bad.open(); err == nil {
		t.Fatal("garbage file accepted")
	}
}

// spillTestRel builds a deterministic multi-segment relation: arity 2,
// enough rows for several segments at the test's shrunken segment size.
func spillTestRel(n int) *Relation {
	r := New(NewSchema(1, 2))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		r.Add(Tuple{Value(rng.Int63n(1000) - 500), Value(i)})
	}
	return r
}

func TestParkToRoundTripsThroughIterAndPageIn(t *testing.T) {
	dir := t.TempDir()
	// > one segment: spillSegValues/arity rows per segment.
	n := segRowsFor(2)*2 + 17
	r := spillTestRel(n)
	want := r.Clone()
	ver := r.Version()

	before := SpillStats()
	sa, err := r.ParkTo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sa == nil || !r.Parked() {
		t.Fatal("ParkTo did not park")
	}
	if got := SpillStats().Parks - before.Parks; got != 1 {
		t.Fatalf("parks delta %d, want 1", got)
	}
	if len(sa.segs) != 3 {
		t.Fatalf("parked into %d segments, want 3", len(sa.segs))
	}
	if r.ArenaBytes() != 0 {
		t.Fatalf("parked relation reports %d resident arena bytes", r.ArenaBytes())
	}
	if r.Len() != n || !r.Schema().Equal(want.Schema()) {
		t.Fatal("parking changed relation identity")
	}

	// Streaming readers see the spilled bytes without paging in.
	assertSame(t, "parked-iter", Materialize(r.Iter()), want)
	if !r.Parked() {
		t.Fatal("streaming a parked relation paged it in")
	}

	// Random access pages the arena back in transparently.
	if got := r.Row(n - 1); !got.Equal(want.Row(n - 1)) {
		t.Fatalf("paged-in row %v, want %v", got, want.Row(n-1))
	}
	if r.Parked() {
		t.Fatal("random access left the relation parked")
	}
	if got := SpillStats().PageIns - before.PageIns; got != 1 {
		t.Fatalf("page-ins delta %d, want 1", got)
	}
	if !slices.Equal(r.Data(), want.Data()) {
		t.Fatal("paged-in arena differs from the original")
	}
	// Park and page-in are storage moves, not mutations: the content
	// version (and with it any retained index or cached plan) survives.
	if got := r.Version(); got != ver {
		t.Fatalf("park/page-in bumped version %d -> %d", ver, got)
	}
	sa.Remove()
}

func TestParkToSkipsDegenerateAndParked(t *testing.T) {
	dir := t.TempDir()
	empty := New(NewSchema(1))
	if sa, err := empty.ParkTo(dir); sa != nil || err != nil {
		t.Fatalf("empty relation parked: %v %v", sa, err)
	}
	r := spillTestRel(50)
	sa, err := r.ParkTo(dir)
	if err != nil || sa == nil {
		t.Fatalf("park failed: %v", err)
	}
	defer sa.Remove()
	if again, err := r.ParkTo(dir); again != nil || err != nil {
		t.Fatalf("double park did not no-op: %v %v", again, err)
	}
}

// TestSegIteratorChunkShape: the reader over a parked relation yields
// chunks of at most chunkRows rows across segment borders, and a
// reader abandoned mid-segment leaves a fresh one unaffected.
func TestSegIteratorChunkShape(t *testing.T) {
	dir := t.TempDir()
	n := segRowsFor(2) + 100
	r := spillTestRel(n)
	want := r.Clone()
	sa, err := r.ParkTo(dir)
	if err != nil || sa == nil {
		t.Fatalf("park failed: %v", err)
	}
	defer sa.Remove()

	if got, chunks := drainChunks(t, r.Iter()), (segRowsFor(2)+chunkRows-1)/chunkRows+1; got != chunks {
		t.Fatalf("%d chunks over two segments, want %d", got, chunks)
	}
	it := r.Iter()
	for rows := 0; rows <= n/2; {
		c, _ := it.Next()
		rows += c.Len()
	}
	it.Close() // abandoned mid-stream, mid-segment
	assertSame(t, "after abandon", Materialize(r.Iter()), want)
}

func TestSegmentedArenaMaterializeAndRemove(t *testing.T) {
	dir := t.TempDir()
	r := spillTestRel(segRowsFor(2) + 5)
	want := r.Clone()
	sa, err := r.ParkTo(dir)
	if err != nil || sa == nil {
		t.Fatalf("park failed: %v", err)
	}
	if sa.ResidentBytes() != 0 {
		t.Fatalf("fully spilled arena reports %d resident bytes", sa.ResidentBytes())
	}
	if sa.SpilledBytes() == 0 {
		t.Fatal("fully spilled arena reports no on-disk bytes")
	}
	got, err := sa.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "materialize", got, want)

	held := SpillStats().HeldBytes
	spilled := sa.SpilledBytes()
	sa.Remove()
	sa.Remove() // idempotent: the second call must not re-decrement
	if d := held - SpillStats().HeldBytes; d != spilled {
		t.Fatalf("Remove released %d held bytes, want %d", d, spilled)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d segment files left after Remove", len(ents))
	}
	// RemoveSpill on the (still parked) relation is now a no-op too.
	r.RemoveSpill()
}

func TestRemoveSpillOnResidentRelationIsNoop(t *testing.T) {
	r := spillTestRel(10)
	r.RemoveSpill()
	if r.Len() != 10 {
		t.Fatal("RemoveSpill damaged a resident relation")
	}
}

// TestParkedConcurrentReaders races streaming readers against
// random-access page-in: every reader must see the full, correct
// contents whichever form it catches the relation in. Run under -race
// in CI's spill-smoke job.
func TestParkedConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	n := segRowsFor(2) + 333
	r := spillTestRel(n)
	want := r.Clone()
	sa, err := r.ParkTo(dir)
	if err != nil || sa == nil {
		t.Fatalf("park failed: %v", err)
	}
	defer sa.Remove()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Materialize(r.Iter())
			if got.Len() != n {
				errs <- "streamed wrong row count"
			}
		}()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if !r.Row(i).Equal(want.Row(i)) {
				errs <- "random access read wrong row"
			}
		}(g * 7)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if r.Parked() {
		t.Fatal("random access should have paged the relation in")
	}
}
