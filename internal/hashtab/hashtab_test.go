package hashtab

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"testing"
)

// legacyHash is the pre-refactor hash path: encode the projection as
// relation.Key does (8 big-endian bytes per value) and FNV-64a the
// string. Hash must match it bit for bit.
func legacyHash(row []int64, pos []int) uint64 {
	buf := make([]byte, 8*len(pos))
	for i, p := range pos {
		binary.BigEndian.PutUint64(buf[8*i:], uint64(row[p]))
	}
	h := fnv.New64a()
	_, _ = h.Write(buf)
	return h.Sum64()
}

func TestHashMatchesLegacyKeyPath(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 500; trial++ {
		row := make([]int64, 1+r.IntN(6))
		for i := range row {
			// Mix small, negative, and full-range values so every byte
			// lane of the encoding is exercised.
			switch r.IntN(3) {
			case 0:
				row[i] = int64(r.IntN(100))
			case 1:
				row[i] = -int64(r.IntN(100))
			default:
				row[i] = int64(r.Uint64())
			}
		}
		pos := make([]int, 1+r.IntN(len(row)))
		for i := range pos {
			pos[i] = r.IntN(len(row))
		}
		if got, want := Hash(row, pos), legacyHash(row, pos); got != want {
			t.Fatalf("Hash(%v, %v) = %#x, legacy key path gives %#x", row, pos, got, want)
		}
	}
	// HashVals must agree with the identity projection.
	row := []int64{3, -9, 1 << 40}
	if HashVals(row) != legacyHash(row, []int{0, 1, 2}) {
		t.Fatal("HashVals diverges from the identity projection")
	}
	// The empty projection is the FNV offset basis (empty Key string).
	if Hash(row, nil) != fnv.New64a().Sum64() {
		t.Fatal("empty projection must hash to the FNV-64a offset basis")
	}
}

func TestInsertFindFirstInsertOrder(t *testing.T) {
	tab := New(2, 0)
	rows := [][]int64{{1, 2, 9}, {1, 3, 9}, {1, 2, 7}, {4, 5, 0}}
	pos := []int{0, 1}
	// rows[0] and rows[2] share the (0,1) projection.
	wantIdx := []int{0, 1, 0, 2}
	wantFound := []bool{false, false, true, false}
	for i, row := range rows {
		idx, found := tab.Insert(row, pos)
		if idx != wantIdx[i] || found != wantFound[i] {
			t.Fatalf("Insert(%v) = (%d, %v), want (%d, %v)", row, idx, found, wantIdx[i], wantFound[i])
		}
	}
	if tab.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", tab.Len())
	}
	// Entries enumerate keys in first-insert order.
	wantKeys := [][]int64{{1, 2}, {1, 3}, {4, 5}}
	for i, want := range wantKeys {
		k := tab.Key(i)
		if k[0] != want[0] || k[1] != want[1] {
			t.Fatalf("Key(%d) = %v, want %v", i, k, want)
		}
	}
	if got := tab.Find([]int64{1, 3}, []int{0, 1}); got != 1 {
		t.Fatalf("Find existing = %d, want 1", got)
	}
	if got := tab.Find([]int64{9, 9}, []int{0, 1}); got != -1 {
		t.Fatalf("Find missing = %d, want -1", got)
	}
}

// TestForcedCollisions drives every key onto one hash value: distinct
// keys must still occupy distinct entries, and lookups must resolve by
// comparing key columns, not hashes.
func TestForcedCollisions(t *testing.T) {
	tab := newWithHash(1, 0, func([]int64, []int) uint64 { return 0xdead })
	const n = 200
	pos := []int{0}
	for i := int64(0); i < n; i++ {
		idx, found := tab.Insert([]int64{i}, pos)
		if found || idx != int(i) {
			t.Fatalf("Insert(%d) = (%d, %v) under forced collisions", i, idx, found)
		}
	}
	for i := int64(0); i < n; i++ {
		if got := tab.Find([]int64{i}, pos); got != int(i) {
			t.Fatalf("Find(%d) = %d under forced collisions", i, got)
		}
		if idx, found := tab.Insert([]int64{i}, pos); !found || idx != int(i) {
			t.Fatalf("re-Insert(%d) = (%d, %v) under forced collisions", i, idx, found)
		}
	}
	if tab.Find([]int64{n}, pos) != -1 {
		t.Fatal("absent key found under forced collisions")
	}
}

// TestGrowthRehash inserts far past the initial capacity and checks the
// load-factor bound and post-rehash lookups.
func TestGrowthRehash(t *testing.T) {
	tab := New(2, 0)
	start := tab.slotsLen()
	const n = 10000
	pos := []int{0, 1}
	for i := int64(0); i < n; i++ {
		tab.Insert([]int64{i, i * 3}, pos)
	}
	if tab.Len() != n {
		t.Fatalf("Len() = %d, want %d", tab.Len(), n)
	}
	if tab.slotsLen() <= start {
		t.Fatalf("slots never grew from %d", start)
	}
	if tab.Len()*loadDen > tab.slotsLen()*loadNum {
		t.Fatalf("load factor bound violated: %d entries in %d slots", tab.Len(), tab.slotsLen())
	}
	for i := int64(0); i < n; i++ {
		if got := tab.Find([]int64{i, i * 3}, pos); got != int(i) {
			t.Fatalf("Find(%d) = %d after rehash", i, got)
		}
	}
}

func TestArityZero(t *testing.T) {
	tab := New(0, 0)
	idx, found := tab.Insert(nil, nil)
	if idx != 0 || found {
		t.Fatalf("first 0-ary Insert = (%d, %v)", idx, found)
	}
	idx, found = tab.Insert([]int64{1, 2}, nil)
	if idx != 0 || !found {
		t.Fatalf("second 0-ary Insert = (%d, %v), want (0, true)", idx, found)
	}
	if tab.Len() != 1 || len(tab.Key(0)) != 0 {
		t.Fatalf("0-ary table Len=%d Key(0)=%v", tab.Len(), tab.Key(0))
	}
}

// TestSteadyStateZeroAlloc pins the headline contract: probing a built
// table — hits and misses — performs zero allocations.
func TestSteadyStateZeroAlloc(t *testing.T) {
	tab := New(2, 1024)
	pos := []int{0, 1}
	row := make([]int64, 2)
	for i := int64(0); i < 1024; i++ {
		row[0], row[1] = i, i^7
		tab.Insert(row, pos)
	}
	probe := func() {
		for i := int64(0); i < 1024; i++ {
			row[0], row[1] = i, i^7
			if tab.Find(row, pos) < 0 {
				t.Fatal("present key not found")
			}
			row[0] = i + 100000 // miss
			tab.Find(row, pos)
			row[0] = i // duplicate insert = pure probe
			if _, found := tab.Insert(row, pos); !found {
				t.Fatal("duplicate insert created an entry")
			}
		}
	}
	if avg := testing.AllocsPerRun(100, probe); avg != 0 {
		t.Fatalf("steady-state probes allocate %.2f allocs/run, want 0", avg)
	}
}

// TestReleaseAllocatesNothing: Release boxes a slice header only on its
// way into a pool, so releasing a zero Table, or a table whose arrays
// are discarded because pooling is off, allocates nothing.
func TestReleaseAllocatesNothing(t *testing.T) {
	t.Run("zero-table", func(t *testing.T) {
		var zero Table
		if avg := testing.AllocsPerRun(100, zero.Release); avg != 0 {
			t.Fatalf("releasing a zero Table: %.2f allocs/run, want 0", avg)
		}
	})
	t.Run("pooling-off", func(t *testing.T) {
		SetPooling(false)
		defer SetPooling(true)
		const runs = 100
		tabs := make([]*Table, runs+1) // AllocsPerRun adds one warm-up call
		for i := range tabs {
			tabs[i] = New(1, 64)
			tabs[i].Insert([]int64{int64(i)}, []int{0})
		}
		next := 0
		release := func() { tabs[next].Release(); next++ }
		if avg := testing.AllocsPerRun(runs, release); avg != 0 {
			t.Fatalf("releasing under SetPooling(false): %.2f allocs/run, want 0", avg)
		}
	})
}

// BenchmarkProbe is the steady-state lookup benchmark: 0 allocs/op is
// the acceptance bar.
func BenchmarkProbe(b *testing.B) {
	tab := New(2, 1<<16)
	pos := []int{0, 1}
	row := make([]int64, 2)
	for i := int64(0); i < 1<<16; i++ {
		row[0], row[1] = i, i*31
		tab.Insert(row, pos)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := int64(i) & (1<<16 - 1)
		row[0], row[1] = v, v*31
		if tab.Find(row, pos) < 0 {
			b.Fatal("miss")
		}
	}
}
