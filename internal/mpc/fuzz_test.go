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

// cutChunks cuts n rows after every row whose index has its bit set in
// cuts (bit i%len), or after every row when every is set, and returns
// the chunk bounds. Written apart from the scratch's cut on purpose.
func cutChunks(n int, cuts []byte, every bool) []int {
	if n == 0 {
		return nil
	}
	out := []int{0}
	for i := 0; i < n; i++ {
		if every || i == n-1 || len(cuts) > 0 && cuts[(i/8)%len(cuts)]>>(i%8)&1 == 1 {
			out = append(out, i+1)
		}
	}
	return out
}

// FuzzExchangeChunking runs the exchanges over arbitrary
// tuples of arity 1 to 6, fragment layouts and cut points of the
// flattened stream — inside fragments, at their borders, one chunk per
// tuple — on one worker and on several, and requires fragments, recv
// and Stats equal to the naive references: the kernel's output may not
// depend on where its input is cut, and every by-arity fill loop (and
// the generic one past them) must copy rows as the references do.
func FuzzExchangeChunking(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(3), uint8(2), uint8(0), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{0xff}, uint8(1), uint8(4), uint8(3), uint8(1))
	f.Add([]byte{0, 0, 255, 255, 7, 7, 9, 9, 42, 42}, []byte{0x12}, uint8(16), uint8(7), uint8(5), uint8(1))
	f.Add([]byte{200, 1, 200, 2, 200, 3}, []byte{0}, uint8(5), uint8(1), uint8(0x80), uint8(1))
	// DistributeSpread picks that alternate between the two branches,
	// one a tuple, with one drop, so each branch's rotation runs on
	// either side of every cut: two cuts inside the only fragment, then
	// one chunk per tuple over two fragments.
	rr := []byte{1, 0, 2, 0, 3, 0, 4, 0, 6, 0, 7, 0}
	f.Add(rr, []byte{0x0a}, uint8(4), uint8(3), uint8(0), uint8(1))
	f.Add(rr, []byte{}, uint8(4), uint8(1), uint8(0x81), uint8(1))
	// The other arities: 1, 3 and 4 have their own fill loops, 5 takes
	// the generic one.
	wide := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30}
	f.Add(wide, []byte{0x25}, uint8(5), uint8(3), uint8(2), uint8(0))
	f.Add(wide, []byte{0x0c}, uint8(7), uint8(2), uint8(1), uint8(2))
	f.Add(wide, []byte{}, uint8(3), uint8(4), uint8(0x82), uint8(3))
	f.Add(wide, []byte{0x41}, uint8(6), uint8(2), uint8(3), uint8(4))
	// Spread: a one-server group under the one-server branch, two tuples
	// over branches of up to 18 servers, and three tuples behind seven
	// empty fragments, cut after each.
	f.Add(wide[:8], []byte{0x05}, uint8(0), uint8(1), uint8(1), uint8(1))
	f.Add(wide[:4], []byte{0x01}, uint8(15), uint8(2), uint8(0), uint8(1))
	f.Add(wide[:3], []byte{}, uint8(9), uint8(3), uint8(0x87), uint8(0))
	f.Fuzz(func(t *testing.T, data, cuts []byte, p8, w8, layout, a8 uint8) {
		p := int(p8)%16 + 1
		workers := int(w8)%8 + 1
		every := layout&0x80 != 0
		nfrags := int(layout&0x0f) + 1
		arity := int(a8)%6 + 1

		attrs := make([]int, arity)
		for i := range attrs {
			attrs[i] = i
		}
		in := relation.New(relation.NewSchema(attrs...))
		for i := 0; i+arity <= len(data); i += arity {
			tup := make(relation.Tuple, arity)
			for j := range tup {
				tup[j] = int64(data[i+j])
			}
			in.Add(tup)
		}
		// Contiguous blocks, the remainder on the last fragment; short
		// inputs leave leading fragments empty.
		sizes := make([]int, nfrags)
		for i := range sizes {
			sizes[i] = in.Len() / nfrags
		}
		sizes[nfrags-1] += in.Len() % nfrags
		d := blocks(in, sizes...)

		chunker := withChunker(func(n int) []int { return cutChunks(n, cuts, every) })
		for _, ec := range exchangeCases(p) {
			checkAgainstNaive(t, ec.name, ec, d, p, withForcedWorkers(workers), chunker)
		}
	})
}
