package hashtab

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"runtime/debug"
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
	row := []int64{3, -9, 1 << 40}
	// The empty projection is the FNV offset basis (empty Key string).
	if Hash(row, nil) != fnv.New64a().Sum64() {
		t.Fatal("empty projection must hash to the FNV-64a offset basis")
	}
}

// probeLen is the test hook behind TestTableHashSpreads: the number of
// slots a lookup of the projection of row onto pos visits, its own slot
// included. Right after an Insert of that key it is the number of slots
// the insert visited to place it.
func (t *Table) probeLen(row []int64, pos []int) int {
	h := t.hashOf(row, pos)
	n := 1
	for s := h & t.mask; t.slots[s] != 0; s = (s + 1) & t.mask {
		if e := int(t.slots[s] - 1); t.hashes[e] == h && t.equalAt(e, row, pos) {
			break
		}
		n++
	}
	return n
}

// TestTableHashSpreads checks that the table's own hash spreads the
// structured keys the engine sees (strides, multiples, grids) over a
// power-of-two slot mask: linear probing stays short at every size.
// Without the final avalanche, stride-64 keys at n = 40 visit 5.6 slots
// an insert; with only its first multiply, consecutive keys at n = 40
// visit 3.5; FNV-64a visits 3.2 on (i, 3i) at n = 40.
func TestTableHashSpreads(t *testing.T) {
	patterns := []struct {
		name string
		key  func(i int64) []int64
	}{
		{"i", func(i int64) []int64 { return []int64{i} }},
		{"64i", func(i int64) []int64 { return []int64{64 * i} }},
		{"256i", func(i int64) []int64 { return []int64{256 * i} }},
		{"(i,3i)", func(i int64) []int64 { return []int64{i, 3 * i} }},
		{"(i%50,i/50)", func(i int64) []int64 { return []int64{i % 50, i / 50} }},
	}
	for _, pat := range patterns {
		for _, n := range []int{40, 200, 800, 5000, 50000} {
			arity := len(pat.key(0))
			pos := []int{0, 1}[:arity]
			var tab Table
			tab.Init(arity, n)
			total, worst := 0, 0
			for i := range int64(n) {
				key := pat.key(i)
				if _, found := tab.Insert(key, pos); found {
					t.Fatalf("%s n=%d: key %v inserted twice", pat.name, n, key)
				}
				v := tab.probeLen(key, pos)
				total += v
				worst = max(worst, v)
			}
			tab.Release()
			if avg := float64(total) / float64(n); avg > 2.5 || worst > 64 {
				t.Errorf("%s n=%d: inserts visit %.2f slots on average (bound 2.5), %d at most (bound 64)",
					pat.name, n, avg, worst)
			}
		}
	}
	// The hash decides slots only: over keys that all share one hash,
	// entry indices and lookups are those of first-insert order.
	tab, first := New(2, 0), map[int64]int{}
	pos := []int{0, 1}
	for i := range int64(300) {
		a := i % 17
		idx, found := tab.Insert(collidingKey(a), pos)
		want, seen := first[a]
		if !seen {
			want = len(first)
			first[a] = want
		}
		if idx != want || found != seen {
			t.Fatalf("Insert(%v) = (%d, %v), want (%d, %v)", collidingKey(a), idx, found, want, seen)
		}
	}
	for a := range int64(25) {
		want, seen := first[a]
		if !seen {
			want = -1
		}
		if got := tab.Find(collidingKey(a), pos); got != want {
			t.Fatalf("Find(%v) = %d, want %d", collidingKey(a), got, want)
		}
	}
}

// collidingKey is key a of a family whose table hashes are all equal:
// the second column cancels the first one's mix, so every key leaves
// the mixer's state at mix(2, 0) before its last fold.
func collidingKey(a int64) []int64 {
	return []int64{a, int64(mix(2, 0) ^ mix(2, uint64(a)))}
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

// TestForcedCollisions drives every key onto one 64-bit hash value:
// distinct keys must still occupy distinct entries, and lookups must
// resolve by comparing key columns, not hashes.
func TestForcedCollisions(t *testing.T) {
	tab := New(2, 0)
	const n = 200
	pos := []int{0, 1}
	for i := int64(0); i < n; i++ {
		if h, h0 := tab.hashOf(collidingKey(i), pos), tab.hashOf(collidingKey(0), pos); h != h0 {
			t.Fatalf("key %v hashes to %#x, key %v to %#x", collidingKey(i), h, collidingKey(0), h0)
		}
		idx, found := tab.Insert(collidingKey(i), pos)
		if found || idx != int(i) {
			t.Fatalf("Insert(%v) = (%d, %v) under forced collisions", collidingKey(i), idx, found)
		}
	}
	for i := int64(0); i < n; i++ {
		if got := tab.Find(collidingKey(i), pos); got != int(i) {
			t.Fatalf("Find(%v) = %d under forced collisions", collidingKey(i), got)
		}
		if idx, found := tab.Insert(collidingKey(i), pos); !found || idx != int(i) {
			t.Fatalf("re-Insert(%v) = (%d, %v) under forced collisions", collidingKey(i), idx, found)
		}
	}
	if tab.Find(collidingKey(n), pos) != -1 {
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

// escapeSink makes a table escape to the heap in an allocation pin.
var escapeSink *Table

// TestReleaseAllocatesNothing: Release allocates a pool handle only when
// no get has parked one, so releasing a zero Table, a table whose
// buffers the pools discard, or a table built from warm pools allocates
// nothing.
func TestReleaseAllocatesNothing(t *testing.T) {
	t.Run("zero-table", func(t *testing.T) {
		var zero Table
		if avg := testing.AllocsPerRun(100, zero.Release); avg != 0 {
			t.Fatalf("releasing a zero Table: %.2f allocs/run, want 0", avg)
		}
	})
	t.Run("below-class-floor", func(t *testing.T) {
		// Buffers under the smallest class are discarded, not pooled.
		const runs = 100
		tabs := make([]*Table, runs+1) // AllocsPerRun adds one warm-up call
		for i := range tabs {
			tabs[i] = &Table{arity: 1, slots: make([]int32, 4), hashes: make([]uint64, 0, 4), keys: make([]int64, 0, 4)}
		}
		before := PoolStats()
		next := 0
		release := func() { tabs[next].Release(); next++ }
		if avg := testing.AllocsPerRun(runs, release); avg != 0 {
			t.Fatalf("releasing undersized buffers: %.2f allocs/run, want 0", avg)
		}
		if after := PoolStats(); after.Discards-before.Discards != 3*(runs+1) || after.Puts != before.Puts {
			t.Fatalf("releasing undersized buffers: pool counters %+v -> %+v, want only discards", before, after)
		}
	})
	t.Run("warm-round-trip", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector makes sync.Pool drop items at random")
		}
		// With the collector off no cycle empties the pools between
		// runs: every buffer is a hit, and its handle goes back with it.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// New inlines, so a table that does not escape stays on the
		// stack; escapeSink keeps it on the heap, as a retained table is.
		row, pos := []int64{1, 2}, []int{0, 1}
		trip := func() {
			tab := New(2, 64)
			escapeSink = tab
			tab.Insert(row, pos)
			tab.Release()
		}
		if avg := testing.AllocsPerRun(100, trip); avg != 1 {
			t.Fatalf("warm New/Insert/Release: %.2f allocs/run, want 1 (the *Table)", avg)
		}
	})
	t.Run("warm-init-round-trip", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector makes sync.Pool drop items at random")
		}
		// The same trip on a caller-owned Table: Init replaces New's
		// *Table, so nothing is allocated at all.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		row, pos := []int64{1, 2}, []int{0, 1}
		var tab Table
		trip := func() {
			tab.Init(2, 64)
			tab.Insert(row, pos)
			tab.Release()
		}
		if avg := testing.AllocsPerRun(100, trip); avg != 0 {
			t.Fatalf("warm Init/Insert/Release: %.2f allocs/run, want 0", avg)
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

// Key returns entry i's key columns. The returned slice aliases the
// table's key arena; callers must not mutate it.
func (t *Table) Key(i int) []int64 {
	return t.keys[i*t.arity : (i+1)*t.arity : (i+1)*t.arity]
}

// slotsLen reports the slot-array capacity (test hook for the growth
// tests).
func (t *Table) slotsLen() int { return len(t.slots) }
