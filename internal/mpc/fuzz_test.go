package mpc

import (
	"hash/fnv"
	"testing"

	"coverpack/internal/relation"
)

// legacyHashDest is the historical HashPartition destination: FNV-64a
// over the encoded key string, mod size. hashtab.Hash computes the same
// value without building the string; the naive reference exchanges
// route by this one, so every comparison against them also pins the
// destinations.
func legacyHashDest(t relation.Tuple, pos []int, size int) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(relation.Key(t, pos)))
	return int(h.Sum64() % uint64(size))
}

// cutChunks cuts d's flattened stream after every tuple whose index has
// its bit set in cuts (bit i%len), or after every tuple when every is
// set. Written apart from flatChunks on purpose.
func cutChunks(d *DistRelation, cuts []byte, every bool) [][]frange {
	var out [][]frange
	var cur []frange
	flat := 0
	for fi, f := range d.Frags {
		lo := 0
		for i := 0; i < f.Len(); i++ {
			cut := every || (len(cuts) > 0 && cuts[(flat/8)%len(cuts)]>>(flat%8)&1 == 1)
			flat++
			if cut || i == f.Len()-1 {
				cur = append(cur, frange{frag: fi, lo: lo, hi: i + 1, base: flat - (i + 1 - lo)})
				lo = i + 1
			}
			if cut {
				out, cur = append(out, cur), nil
			}
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// FuzzExchangeChunking runs the five routed exchanges over arbitrary
// tuples, fragment layouts and cut points of the flattened stream —
// inside fragments, at their borders, one chunk per tuple — on one
// worker and on several, and requires fragments, recv and Stats equal
// to the naive references: the kernel's output may not depend on where
// its input is cut.
func FuzzExchangeChunking(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(3), uint8(2), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0xff}, uint8(1), uint8(4), uint8(3))
	f.Add([]byte{0, 0, 255, 255, 7, 7, 9, 9, 42, 42}, []byte{0x12}, uint8(16), uint8(7), uint8(5))
	f.Add([]byte{200, 1, 200, 2, 200, 3}, []byte{0}, uint8(5), uint8(1), uint8(0x80))
	// Round-robin sends to both Spread branches on either side of every
	// cut: two cuts inside the only fragment, then one chunk per tuple
	// over two fragments.
	rr := []byte{1, 0, 3, 0, 9, 0, 11, 0, 13, 0, 17, 0}
	f.Add(rr, []byte{0x0a}, uint8(4), uint8(3), uint8(0))
	f.Add(rr, []byte{}, uint8(4), uint8(1), uint8(0x81))
	f.Fuzz(func(t *testing.T, data, cuts []byte, p8, w8, layout uint8) {
		p := int(p8)%16 + 1
		workers := int(w8)%8 + 1
		every := layout&0x80 != 0
		nfrags := int(layout&0x0f) + 1

		in := relation.New(relation.NewSchema(0, 1))
		for i := 0; i+1 < len(data); i += 2 {
			in.Add(relation.Tuple{int64(data[i]), int64(data[i+1])})
		}
		// Contiguous blocks, the remainder on the last fragment; short
		// inputs leave leading fragments empty.
		sizes := make([]int, nfrags)
		for i := range sizes {
			sizes[i] = in.Len() / nfrags
		}
		sizes[nfrags-1] += in.Len() % nfrags
		d := blocks(in, sizes...)

		chunker := withChunker(func(d *DistRelation) [][]frange { return cutChunks(d, cuts, every) })
		for _, ec := range exchangeCases(p) {
			for _, charge := range []bool{true, false} {
				checkAgainstNaive(t, ec.name, ec, d, p, charge, withForcedWorkers(workers), chunker)
			}
		}
	})
}
