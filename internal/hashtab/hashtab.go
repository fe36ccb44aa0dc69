// Package hashtab provides an open-addressing hash table keyed directly
// on projected int64 columns of arena-stored rows. It replaces the
// map[string] tables that the relation operators and the MPC simulator
// historically built over relation.Key — which materialized a fresh
// 8·k-byte string per tuple — with a probe path that allocates nothing
// in steady state.
//
// The package has two hashes with different promises.
//
// Hash is the routing hash, and its compatibility is a hard contract:
// Hash(row, pos) is the FNV-64a hash of the big-endian 8-byte encoding
// of each projected value, in projection order — bit-identical to
// hashing relation.Key(row, pos) with hash/fnv. HashPartition
// destinations, golden reports, and trace histograms depend on it, so
// they do not move by a single byte (the difftest oracle and
// TestHashMatchesLegacyKeyPath enforce the equivalence).
//
// The table's own hash (Table.hashOf, and MixRow for a whole row) is
// private to the process: a word-at-a-time multiply-xorshift closed by
// murmur3's finaliser, chosen for speed and for spreading structured
// keys over a power-of-two mask (TestTableHashSpreads). It
// carries no compatibility promise — nothing observable depends on it,
// because entry order is first-insert order, not slot order.
//
// The table maps keys to dense entry indices 0..Len()-1 in first-insert
// order. Callers own the associated values as parallel slices indexed by
// entry — sums for aggregation, bucket heads for hash-join chains,
// nothing for set semantics — which keeps the table monomorphic and the
// per-entry storage exactly one cached hash plus the key columns.
// First-insert order doubles as the deterministic iteration order that
// the engine's byte-identical-output contract requires; iterating
// entries 0..Len()-1 visits keys exactly as a sequential scan first saw
// them.
package hashtab

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Load factor bound: grow when occupied*loadDen > slots*loadNum (3/4).
const (
	loadNum = 3
	loadDen = 4
)

// Hash returns the FNV-64a hash of the projection of row onto pos. It
// is the streaming equivalent of fnv over relation.Key(row, pos): each
// projected value contributes its 8 bytes in big-endian order.
func Hash(row []int64, pos []int) uint64 {
	h := uint64(offset64)
	for _, p := range pos {
		h = hashValue(h, uint64(row[p]))
	}
	return h
}

// hashValue folds one value's 8 big-endian bytes into an FNV-64a state.
func hashValue(h, v uint64) uint64 {
	h = (h ^ (v >> 56 & 0xff)) * prime64
	h = (h ^ (v >> 48 & 0xff)) * prime64
	h = (h ^ (v >> 40 & 0xff)) * prime64
	h = (h ^ (v >> 32 & 0xff)) * prime64
	h = (h ^ (v >> 24 & 0xff)) * prime64
	h = (h ^ (v >> 16 & 0xff)) * prime64
	h = (h ^ (v >> 8 & 0xff)) * prime64
	h = (h ^ (v & 0xff)) * prime64
	return h
}

// The table's mixer: seed with the key width, fold each column in with
// a multiply and a xorshift, then avalanche with murmur3's 64-bit
// finaliser so that a power-of-two mask sees every bit. Its first half
// alone is not enough: forty consecutive small integers then crowd a
// 64-slot table to 3.5 slots a probe.
const (
	mixMul = 0x9e3779b97f4a7c15
	fmix1  = 0xff51afd7ed558ccd
	fmix2  = 0xc4ceb9fe1a85ec53
)

// mix folds one key column into the table hash state.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * mixMul
	return h ^ h>>32
}

// finish avalanches a table hash state (murmur3's fmix64).
func finish(h uint64) uint64 {
	h = (h ^ h>>33) * fmix1
	h = (h ^ h>>33) * fmix2
	return h ^ h>>33
}

// MixRow returns the table's hash of all columns of row, in order: the
// value Table.hashOf gives the identity projection. It is the one local
// (non-routing) hash of the repository; it promises nothing across
// versions.
func MixRow(row []int64) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		h = mix(h, uint64(v))
	}
	return finish(h)
}

// Table is an open-addressing (linear-probing) hash table over fixed-
// width int64 keys. The zero value is not usable; call New or Init.
type Table struct {
	arity  int     // key width in columns
	keys   []int64 // stride-arity key storage, entry i at keys[i*arity:]
	hashes []uint64
	slots  []int32 // entry index + 1; 0 = empty
	mask   uint64
	// collide is a test seam for forcing hash collisions: every key
	// hashes to one value. Production constructors leave it false, so
	// the hot path pays one predictable branch, and no indirect call
	// makes the probed rows escape (a caller's table can stay on its
	// stack).
	collide bool
}

// New returns a table for keys of the given column count, pre-sized for
// about hint entries.
func New(arity, hint int) *Table {
	t := new(Table)
	t.Init(arity, hint)
	return t
}

// Init makes t an empty table for keys of the given column count,
// pre-sized for about hint entries — New without the Table allocation,
// for a caller that keeps the table in a local variable for the length
// of one call and releases it before returning.
func (t *Table) Init(arity, hint int) {
	if arity < 0 {
		panic("hashtab: negative key arity")
	}
	size := 8
	for size*loadNum < hint*loadDen {
		size <<= 1
	}
	*t = Table{arity: arity, mask: uint64(size - 1)}
	t.slots = getSlots(size)
	t.hashes = hashPool.Get(hint)
	t.keys = keyPool.Get(hint * arity)
}

// newColliding is the test-only constructor whose keys all hash to one
// value, letting the tests force distinct keys onto equal hashes.
func newColliding(arity, hint int) *Table {
	t := New(arity, hint)
	t.collide = true
	return t
}

// Len returns the number of distinct keys inserted.
func (t *Table) Len() int { return len(t.hashes) }

// Key returns entry i's key columns. The returned slice aliases the
// table's key arena; callers must not mutate it.
func (t *Table) Key(i int) []int64 {
	return t.keys[i*t.arity : (i+1)*t.arity : (i+1)*t.arity]
}

// hashOf is the table's hash of the projection of row onto pos: MixRow
// of the projected columns.
func (t *Table) hashOf(row []int64, pos []int) uint64 {
	if t.collide {
		return 0xdead
	}
	h := uint64(len(pos))
	for _, p := range pos {
		h = mix(h, uint64(row[p]))
	}
	return finish(h)
}

// equalAt reports whether entry e's key equals the projection of row
// onto pos.
func (t *Table) equalAt(e int, row []int64, pos []int) bool {
	k := t.keys[e*t.arity:]
	for i, p := range pos {
		if k[i] != row[p] {
			return false
		}
	}
	return true
}

// Find returns the entry index of the projection of row onto pos, or -1
// when the key is absent. len(pos) must equal the table arity. Find
// performs no allocation.
func (t *Table) Find(row []int64, pos []int) int {
	h := t.hashOf(row, pos)
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		e := t.slots[s]
		if e == 0 {
			return -1
		}
		if t.hashes[e-1] == h && t.equalAt(int(e-1), row, pos) {
			return int(e - 1)
		}
	}
}

// Insert adds the projection of row onto pos if absent. It returns the
// key's dense entry index and whether the key was already present.
// Entry indices are assigned in first-insert order, starting at 0.
func (t *Table) Insert(row []int64, pos []int) (idx int, found bool) {
	if len(pos) != t.arity {
		panic("hashtab: projection width != table arity")
	}
	h := t.hashOf(row, pos)
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		e := t.slots[s]
		if e == 0 {
			idx = len(t.hashes)
			if (idx+1)*loadDen > len(t.slots)*loadNum {
				t.grow()
				for s = h & t.mask; t.slots[s] != 0; s = (s + 1) & t.mask {
				}
			}
			t.slots[s] = int32(idx + 1)
			t.hashes = append(t.hashes, h)
			for _, p := range pos {
				t.keys = append(t.keys, row[p])
			}
			return idx, false
		}
		if t.hashes[e-1] == h && t.equalAt(int(e-1), row, pos) {
			return int(e - 1), true
		}
	}
}

// grow doubles the slot array and reinserts all entries from their
// cached hashes (keys and entry indices are untouched).
func (t *Table) grow() {
	size := len(t.slots) * 2
	old := t.slots
	t.slots = getSlots(size)
	slotPool.Put(old)
	t.mask = uint64(size - 1)
	for e, h := range t.hashes {
		s := h & t.mask
		for t.slots[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = int32(e + 1)
	}
}

// slotsLen reports the slot-array capacity (test hook for the growth
// tests).
func (t *Table) slotsLen() int { return len(t.slots) }
