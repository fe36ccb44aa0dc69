package relation

import (
	"slices"

	"coverpack/internal/hashtab"
)

// Intra-operator parallel kernels.
//
// Every kernel here is a parallel decomposition of one sequential
// operator in ops.go / radix.go / relation.go, with a byte-identity
// contract: for any Forker and any worker count, the output relation
// (content, row order, schema) is identical to the sequential
// reference. The decompositions achieve this the same way throughout —
// work is split into contiguous row blocks in index order, per-block
// results land in pre-computed disjoint regions (offset arrays, keep
// flags, Builder shards), and regions are concatenated in block order,
// so the assembled output is exactly the sequential scan's output no
// matter which participant ran which block.
//
// The kernels accept any Forker; the engine's *mpc.Group satisfies it,
// so local operators running inside a Parallel branch fan out over the
// same morsel-queue token pool as the exchange operators (nested forks
// degrade to inline execution when the pool is busy, which keeps the
// per-phase barriers deadlock-free). Each kernel phase is one Fork
// call — the Fork return is the barrier between phases; no
// synchronization happens inside task bodies beyond writes to
// caller-owned disjoint slots.

// ParCutoff is the row count below which a parallel-eligible kernel
// stays sequential: under it, fork setup and extra passes cost more
// than the scan saves. Cutoff hits are counted (ParStats) to make the
// heuristic observable.
const ParCutoff = 4096

// parBlockFactor and parMinBlock shape the block decomposition:
// at most workers×parBlockFactor blocks (so stolen blocks rebalance
// skew) of at least parMinBlock rows (so per-block fixed costs stay
// amortized).
const (
	parBlockFactor = 4
	parMinBlock    = 512
)

// maxHashParts caps partitioned-hash fan-out so partition ids fit a
// byte.
const maxHashParts = 256

// Forker runs n index tasks, possibly concurrently, returning after
// all complete. Workers reports the potential concurrency (1 means
// sequential); ParKernels reports whether the run allows the parallel
// kernel paths at all (off, every kernel takes its sequential
// reference — outputs are byte-identical either way, the setting
// exists for the differential tests). *mpc.Group implements it; tests
// use local fakes.
type Forker interface {
	Fork(n int, fn func(i int))
	Workers() int
	ParKernels() bool
}

// parEligible decides whether a kernel over the given row count takes
// its parallel path, and counts the decision.
func parEligible(f Forker, rows int) bool {
	if f == nil || f.Workers() <= 1 || !f.ParKernels() {
		return false
	}
	if rows < ParCutoff {
		parSeqCutoffs.Add(1)
		return false
	}
	parKernelRuns.Add(1)
	return true
}

// rowSpan is one contiguous block of row indices, [lo, hi).
type rowSpan struct{ lo, hi int }

// parBlocks splits rows into index-ordered contiguous blocks sized for
// the given worker count.
func parBlocks(rows, workers int) []rowSpan {
	nb := workers * parBlockFactor
	if most := (rows + parMinBlock - 1) / parMinBlock; nb > most {
		nb = most
	}
	if nb < 1 {
		nb = 1
	}
	out := make([]rowSpan, nb)
	for b := range out {
		out[b] = rowSpan{rows * b / nb, rows * (b + 1) / nb}
	}
	return out
}

// SortByPar is SortBy with the permutation build and apply fanned out
// over f. Parked relations and sub-cutoff inputs delegate to the
// sequential path.
func (r *Relation) SortByPar(pos []int, f Forker) {
	if r.rows < 2 || r.arity == 0 || len(pos) == 0 {
		return
	}
	if r.segArena() != nil || !parEligible(f, r.rows) {
		r.SortBy(pos)
		return
	}
	w := f.Workers()
	blocks := parBlocks(r.rows, w)
	nb := len(blocks)
	// Sorted-input early-out, one block scan each plus the block
	// boundaries (comparing block b's first row to block b-1's last).
	sorted := make([]bool, nb)
	f.Fork(nb, func(b int) {
		lo := blocks[b].lo
		if lo == 0 {
			lo = 1
		}
		ok := true
		for i := lo; i < blocks[b].hi; i++ {
			if r.compareRowsAt(i-1, i, pos) > 0 {
				ok = false
				break
			}
		}
		sorted[b] = ok
	})
	allSorted := true
	for _, ok := range sorted {
		if !ok {
			allSorted = false
			break
		}
	}
	if allSorted {
		return
	}
	perm := radixPermPar(r.data, r.rows, r.arity, pos, blocks, f)
	out := make([]Value, len(r.data))
	f.Fork(nb, func(b int) {
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			copy(out[i*r.arity:(i+1)*r.arity], r.data[int(perm[i])*r.arity:])
		}
	})
	r.data = out
	r.invalidate()
}

// radixPermPar is radixPerm with per-block histograms and parallel
// scatter. Each pass counts digits per block, builds one global offset
// table ordered digit-major then block-major (exactly the positions
// the sequential stable counting pass assigns, since concatenating the
// blocks in order reproduces the sequential scan order), and scatters
// each block through its private offset cursors. The permutation is
// byte-identical to radixPerm's for every input.
func radixPermPar(data []Value, rows, arity int, pos []int, blocks []rowSpan, f Forker) []int32 {
	nb := len(blocks)
	perm := make([]int32, rows)
	f.Fork(nb, func(b int) {
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			perm[i] = int32(i)
		}
	})
	tmp := make([]int32, rows)
	keys := make([]uint64, rows)
	cnts := make([][256]int, nb)
	offs := make([][256]int, nb)
	for c := len(pos) - 1; c >= 0; c-- {
		p := pos[c]
		f.Fork(nb, func(b int) {
			for i := blocks[b].lo; i < blocks[b].hi; i++ {
				keys[i] = uint64(data[i*arity+p]) ^ (1 << 63)
			}
		})
		for shift := uint(0); shift < 64; shift += 8 {
			f.Fork(nb, func(b int) {
				cnt := &cnts[b]
				*cnt = [256]int{}
				for i := blocks[b].lo; i < blocks[b].hi; i++ {
					cnt[byte(keys[perm[i]]>>shift)]++
				}
			})
			// Uniform digit: nothing moves this pass (the per-block counts
			// over perm cover the same key multiset the sequential count
			// does).
			d0 := byte(keys[0] >> shift)
			total := 0
			for b := 0; b < nb; b++ {
				total += cnts[b][d0]
			}
			if total == rows {
				continue
			}
			sum := 0
			for d := 0; d < 256; d++ {
				for b := 0; b < nb; b++ {
					offs[b][d] = sum
					sum += cnts[b][d]
				}
			}
			f.Fork(nb, func(b int) {
				off := &offs[b]
				for i := blocks[b].lo; i < blocks[b].hi; i++ {
					pi := perm[i]
					d := byte(keys[pi] >> shift)
					tmp[off[d]] = pi
					off[d]++
				}
			})
			perm, tmp = tmp, perm
		}
	}
	return perm
}

// runSeg is a half-open row segment of one sorted run.
type runSeg struct{ next, end int }

// MergeRunsPar is MergeRuns with the merge split into key-disjoint
// parts produced in parallel. Splitter rows sampled from the runs cut
// every run at "first row >= splitter" boundaries, so equal keys never
// straddle a part; each part stable-merges its run segments into a
// pre-computed region of the output arena, and concatenating the parts
// in splitter order equals the global stable merge.
func (r *Relation) MergeRunsPar(runLens []int, pos []int, f Forker) *Relation {
	if len(pos) == 0 || r.arity == 0 || !parEligible(f, r.rows) {
		return r.MergeRuns(runLens, pos)
	}
	r.ensureResident()
	runs := make([]runSeg, 0, len(runLens))
	start := 0
	for _, n := range runLens {
		if n < 0 {
			panic("relation: MergeRuns negative run length")
		}
		if n > 0 {
			runs = append(runs, runSeg{start, start + n})
		}
		start += n
	}
	if start != r.rows {
		panic("relation: MergeRuns run lengths do not cover the relation")
	}
	if len(runs) <= 1 {
		return r.Clone()
	}
	// Sample up to 8 rows per run as splitter candidates and sort them
	// (ties by row index, for a deterministic cut regardless of sample
	// order).
	var cand []int32
	for _, ru := range runs {
		n := ru.end - ru.next
		step := n / 8
		if step < 1 {
			step = 1
		}
		for i := ru.next; i < ru.end; i += step {
			cand = append(cand, int32(i))
		}
	}
	slices.SortFunc(cand, func(a, b int32) int {
		if c := r.compareRowsAt(int(a), int(b), pos); c != 0 {
			return c
		}
		return int(a - b)
	})
	nparts := f.Workers()
	if nparts > len(cand) {
		nparts = len(cand)
	}
	if nparts < 1 {
		nparts = 1
	}
	// bounds[k][ri]: first row of run ri belonging to part k. Part k
	// holds keys in [splitter k, splitter k+1) — galloping for the first
	// row >= the splitter keeps every tie group on one side of each cut.
	bounds := make([][]int, nparts+1)
	bounds[0] = make([]int, len(runs))
	for ri, ru := range runs {
		bounds[0][ri] = ru.next
	}
	for k := 1; k < nparts; k++ {
		sp := int(cand[k*len(cand)/nparts])
		bk := make([]int, len(runs))
		for ri, ru := range runs {
			bk[ri] = r.gallopRows(bounds[k-1][ri], ru.end, sp, pos, true)
		}
		bounds[k] = bk
	}
	bounds[nparts] = make([]int, len(runs))
	for ri, ru := range runs {
		bounds[nparts][ri] = ru.end
	}
	offs := make([]int, nparts+1)
	for k := 0; k < nparts; k++ {
		size := 0
		for ri := range runs {
			size += bounds[k+1][ri] - bounds[k][ri]
		}
		offs[k+1] = offs[k] + size
	}
	data := GetArena(r.rows * r.arity)[:r.rows*r.arity]
	f.Fork(nparts, func(k int) {
		segs := make([]runSeg, 0, len(runs))
		for ri := range runs {
			if bounds[k][ri] < bounds[k+1][ri] {
				segs = append(segs, runSeg{bounds[k][ri], bounds[k+1][ri]})
			}
		}
		r.mergeSegsInto(segs, pos, data[offs[k]*r.arity:offs[k+1]*r.arity])
	})
	return FromData(r.schema, data, r.rows)
}

// mergeSegsInto stable-merges sorted row segments of r (in segment
// order for ties, matching MergeRuns) into dst, which must hold
// exactly the segment rows.
func (r *Relation) mergeSegsInto(segs []runSeg, pos []int, dst []Value) {
	if len(segs) == 0 {
		return
	}
	o := 0
	emitRange := func(lo, hi int) {
		o += copy(dst[o:(o+(hi-lo)*r.arity)], r.data[lo*r.arity:hi*r.arity])
	}
	for len(segs) > 1 {
		win := 0
		for i := 1; i < len(segs); i++ {
			if r.compareRowsAt(segs[i].next, segs[win].next, pos) < 0 {
				win = i
			}
		}
		oth := -1
		for i := range segs {
			if i == win {
				continue
			}
			if oth < 0 || r.compareRowsAt(segs[i].next, segs[oth].next, pos) < 0 {
				oth = i
			}
		}
		n := r.gallopRows(segs[win].next, segs[win].end, segs[oth].next, pos, win > oth)
		emitRange(segs[win].next, n)
		segs[win].next = n
		if n == segs[win].end {
			segs = append(segs[:win], segs[win+1:]...)
		}
	}
	emitRange(segs[0].next, segs[0].end)
}

// hashParts returns the partition fan-out for partitioned-hash
// kernels.
func hashParts(workers int) int {
	p := workers
	if p < 2 {
		p = 2
	}
	if p > maxHashParts {
		p = maxHashParts
	}
	return p
}

// parPartitionRows hash-partitions the row indices of r on pos,
// preserving ascending row order within each partition. It returns the
// per-row partition ids, the partition-grouped row indices, and the
// parts+1 offsets delimiting each partition's group.
func parPartitionRows(r *Relation, pos []int, parts int, blocks []rowSpan, f Forker) (pids []uint8, partRows []int32, partOff []int32) {
	nb := len(blocks)
	pids = make([]uint8, r.rows)
	cnt := make([][]int32, nb)
	f.Fork(nb, func(b int) {
		c := make([]int32, parts)
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			p := uint8(hashtab.Hash(r.Row(i), pos) % uint64(parts))
			pids[i] = p
			c[p]++
		}
		cnt[b] = c
	})
	// Offsets partition-major then block-major: partition p's group is
	// its blocks' rows concatenated in block order, i.e. ascending row
	// index.
	cur := make([][]int32, nb)
	for b := 0; b < nb; b++ {
		cur[b] = make([]int32, parts)
	}
	partOff = make([]int32, parts+1)
	sum := int32(0)
	for p := 0; p < parts; p++ {
		partOff[p] = sum
		for b := 0; b < nb; b++ {
			cur[b][p] = sum
			sum += cnt[b][p]
		}
	}
	partOff[parts] = sum
	partRows = make([]int32, r.rows)
	f.Fork(nb, func(b int) {
		c := cur[b]
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			p := pids[i]
			partRows[c[p]] = int32(i)
			c[p]++
		}
	})
	return pids, partRows, partOff
}

// compactKept assembles the relation of rows with keep[i] set, in row
// order, with counting and copying fanned out over the blocks.
func (r *Relation) compactKept(keep []bool, blocks []rowSpan, f Forker) *Relation {
	nb := len(blocks)
	counts := make([]int, nb)
	f.Fork(nb, func(b int) {
		n := 0
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			if keep[i] {
				n++
			}
		}
		counts[b] = n
	})
	total := 0
	offs := make([]int, nb)
	for b := 0; b < nb; b++ {
		offs[b] = total
		total += counts[b]
	}
	data := GetArena(total * r.arity)[:total*r.arity]
	f.Fork(nb, func(b int) {
		o := offs[b] * r.arity
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			if keep[i] {
				copy(data[o:o+r.arity], r.data[i*r.arity:])
				o += r.arity
			}
		}
	})
	return FromData(r.schema, data, total)
}

// DedupPar is Dedup with partitioned duplicate detection: rows are
// hash-partitioned on the full row (duplicates share a partition), one
// table per partition marks first occurrences in row order, and the
// kept rows compact in row order — exactly Dedup's first-seen output.
func (r *Relation) DedupPar(f Forker) *Relation {
	if r.arity == 0 || !parEligible(f, r.rows) {
		return r.Dedup()
	}
	r.ensureResident()
	w := f.Workers()
	blocks := parBlocks(r.rows, w)
	pos := identityPositions(r.arity)
	parts := hashParts(w)
	_, partRows, partOff := parPartitionRows(r, pos, parts, blocks, f)
	keep := make([]bool, r.rows)
	f.Fork(parts, func(p int) {
		rows := partRows[partOff[p]:partOff[p+1]]
		if len(rows) == 0 {
			return
		}
		t := hashtab.New(r.arity, len(rows))
		for _, i := range rows {
			if _, found := t.Insert(r.Row(int(i)), pos); !found {
				keep[i] = true
			}
		}
		t.Release()
	})
	return r.compactKept(keep, blocks, f)
}

// SemiJoinPar is SemiJoin with the probe scan fanned out over row
// blocks. The build side reuses the retained key index (built
// sequentially, shared read-only by all probes).
func (r *Relation) SemiJoinPar(s *Relation, f Forker) *Relation {
	common := r.schema.Common(s.schema)
	if len(common) == 0 || !parEligible(f, r.rows) {
		return r.SemiJoin(s)
	}
	r.ensureResident()
	s.ensureResident()
	probe := s.indexOn(s.schema.Positions(common)).table
	rPos := r.schema.Positions(common)
	blocks := parBlocks(r.rows, f.Workers())
	keep := make([]bool, r.rows)
	f.Fork(len(blocks), func(b int) {
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			if probe.Find(r.Row(i), rPos) >= 0 {
				keep[i] = true
			}
		}
	})
	return r.compactKept(keep, blocks, f)
}

// JoinPar is Join with the probe scan fanned out over row blocks into
// per-block Builder shards. The build side (the smaller relation, as
// in Join) indexes sequentially; probes emit probe-order × chain-order
// into shard b for block b, and Build concatenates shards in block
// order — the sequential hash join's exact output order.
func (r *Relation) JoinPar(s *Relation, f Forker) *Relation {
	common := r.schema.Common(s.schema)
	build, probe := s, r
	buildIsS := true
	if r.Len() < s.Len() {
		build, probe = r, s
		buildIsS = false
	}
	if len(common) == 0 || !parEligible(f, probe.rows) {
		return r.Join(s)
	}
	r.ensureResident()
	s.ensureResident()
	outSchema := r.schema.Union(s.schema)
	rOut := make([]int, 0, r.schema.Len())
	for _, a := range r.schema.attrs {
		rOut = append(rOut, outSchema.Pos(a))
	}
	sOut := make([]int, 0, s.schema.Len())
	for _, a := range s.schema.attrs {
		sOut = append(sOut, outSchema.Pos(a))
	}
	buildPos := build.schema.Positions(common)
	probePos := probe.schema.Positions(common)
	ix := build.indexOn(buildPos)
	blocks := parBlocks(probe.rows, f.Workers())
	bld := NewBuilder(outSchema, len(blocks))
	f.Fork(len(blocks), func(b int) {
		sh := bld.Shard(b)
		scratch := make(Tuple, outSchema.Len())
		emit := func(rt, st Tuple) {
			for i, p := range rOut {
				scratch[p] = rt[i]
			}
			for i, p := range sOut {
				scratch[p] = st[i]
			}
			sh.Add(scratch)
		}
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			t := probe.Row(i)
			e := ix.table.Find(t, probePos)
			if e < 0 {
				continue
			}
			for bb := ix.heads[e]; bb >= 0; bb = ix.next[bb] {
				bt := build.Row(int(bb))
				if buildIsS {
					emit(t, bt)
				} else {
					emit(bt, t)
				}
			}
		}
	})
	return bld.Build()
}

// AggregateSumPar computes the per-key-group sums of column vpos,
// grouped on key positions kpos, via partitioned hash aggregation. It
// returns each group's first-occurrence row (ascending — the hashtab
// first-insert order a sequential pass produces) and the group sums
// aligned to it, or (nil, nil) when the input should take the
// sequential path.
func (r *Relation) AggregateSumPar(kpos []int, vpos int, f Forker) ([]int32, []int64) {
	if r.arity == 0 || len(kpos) == 0 || !parEligible(f, r.rows) {
		return nil, nil
	}
	r.ensureResident()
	w := f.Workers()
	blocks := parBlocks(r.rows, w)
	parts := hashParts(w)
	pids, partRows, partOff := parPartitionRows(r, kpos, parts, blocks, f)
	keep := make([]bool, r.rows)
	tables := make([]*hashtab.Table, parts)
	psums := make([][]int64, parts)
	f.Fork(parts, func(p int) {
		rows := partRows[partOff[p]:partOff[p+1]]
		if len(rows) == 0 {
			return
		}
		t := hashtab.New(len(kpos), len(rows))
		var s []int64
		for _, i := range rows {
			row := r.Row(int(i))
			e, found := t.Insert(row, kpos)
			if !found {
				s = append(s, 0)
				keep[i] = true
			}
			s[e] += row[vpos]
		}
		tables[p] = t
		psums[p] = s
	})
	// Compact first-occurrence rows in row order; each rep's sum comes
	// from its partition's table.
	nb := len(blocks)
	counts := make([]int, nb)
	f.Fork(nb, func(b int) {
		n := 0
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			if keep[i] {
				n++
			}
		}
		counts[b] = n
	})
	total := 0
	offs := make([]int, nb)
	for b := 0; b < nb; b++ {
		offs[b] = total
		total += counts[b]
	}
	reps := make([]int32, total)
	sums := make([]int64, total)
	f.Fork(nb, func(b int) {
		o := offs[b]
		for i := blocks[b].lo; i < blocks[b].hi; i++ {
			if !keep[i] {
				continue
			}
			p := pids[i]
			e := tables[p].Find(r.Row(i), kpos)
			reps[o] = int32(i)
			sums[o] = psums[p][e]
			o++
		}
	})
	for _, t := range tables {
		if t != nil {
			t.Release()
		}
	}
	return reps, sums
}
