package aggregate

import (
	"sort"

	"fedms/internal/compress"
	"fedms/internal/tensor"
)

// This file is the one kernel family of the per-coordinate rules
// (Mean, TrimmedMean, CoordinateMedian). coordKernel resolves a rule,
// a row count and optional row weights into a kernel, and three gather
// drivers feed it columns: dense rows (reduceRows), payload tiles
// (reducePayloads) and shard blocks (aggShard.reduce in shard.go).
// Every driver partitions coordinates the same way and hands the
// kernel each column in member order, so the drivers agree bit for
// bit by construction.
//
// Weighted kernels serve the async scheduler's staleness down-weighting
// (DESIGN.md §7): each admitted upload carries w(s) = 1/(1+s).
//
//   - At weight ≡ 1 every weighted kernel is bit-identical to its
//     unweighted rule: same scan and summation order, same
//     divide-vs-multiply choice per path, same (n, m)-pure path
//     selection, so 1·x = x and exact small-integer weight sums make
//     the identity hold at the float64-bit level.
//   - Trimming stays count-based: TrimCount(n) values drop from each
//     side exactly as in the unweighted rule (Lemma 2 counts
//     adversarial inputs, not weight mass), ties trim in input order
//     (the sort is stable), and the kept values average as Σwᵢvᵢ/Σwᵢ.
//   - The weighted median is the 50% weighted-rank order statistic;
//     landing exactly on W/2 averages the straddling pair, which
//     reproduces the unweighted even-n midpoint at weight ≡ 1.

type kernelOp uint8

const (
	opMean kernelOp = iota
	opTrim
	opMedian
)

// kernel is one per-coordinate rule resolved for an aggregation of n
// rows.
type kernel struct {
	op      kernelOp
	m       int       // trimmed mean: values dropped per side
	workers int       // forEachCoordChunk bound (the rule's Workers)
	weights []float64 // per-row weights in member order; nil = unweighted
	inv     float64   // mean: 1/n, or 1/Σw when weighted
}

// PerCoordinate reports whether r aggregates coordinate by coordinate
// — Mean, TrimmedMean and CoordinateMedian. Only these rules have the
// fused, sharded and weighted kernels; selection and loss rules score
// whole vectors, and a NoFuse wrapper hides the kernels on purpose.
func PerCoordinate(r Rule) bool {
	switch r.(type) {
	case Mean, TrimmedMean, CoordinateMedian:
		return true
	}
	return false
}

// coordKernel is the kernel table: rule r over n rows, weighted when
// weights is non-nil. ok is false for rules that are not PerCoordinate.
// The mean's reciprocal sums the weights in member order, exactly as
// the row-wise accumulation would.
func coordKernel(r Rule, n int, weights []float64) (k kernel, ok bool) {
	k.weights = weights
	switch t := r.(type) {
	case Mean:
		k.op = opMean
		wsum := float64(n)
		if weights != nil {
			wsum = 0
			for _, w := range weights {
				wsum += w
			}
		}
		k.inv = 1 / wsum
	case TrimmedMean:
		k.op, k.m, k.workers = opTrim, t.TrimCount(n), t.Workers
	case CoordinateMedian:
		k.op, k.workers = opMedian, t.Workers
	default:
		return kernel{}, false
	}
	return k, true
}

// winLen is the selection-window scratch the kernel needs per column.
func (k kernel) winLen() int {
	if k.op == opTrim {
		return 2 * k.m
	}
	return 0
}

// rowwiseMean reports whether the kernel is the unweighted mean, which
// the dense and payload drivers accumulate row by row (VecMean's
// arithmetic) instead of column by column. Both orders perform the
// same additions per coordinate, so the results agree bit for bit.
func (k kernel) rowwiseMean() bool { return k.op == opMean && k.weights == nil }

// reduce computes one coordinate from its gathered column. col is
// scratch and may be reordered; win is winLen() floats; s is the chunk
// worker's scratch (the weighted kernels keep a mutable weight copy in
// it).
func (k *kernel) reduce(col, win []float64, s *chunkScratch) float64 {
	switch k.op {
	case opTrim:
		if k.weights == nil {
			return trimmedMeanOf(col, k.m, win)
		}
		return weightedTrimmedMeanOf(col, k.weights, k.m, win, s)
	case opMedian:
		if k.weights == nil {
			return columnMedian(col)
		}
		return weightedMedianOf(col, k.weights, s)
	}
	sum := 0.0
	if k.weights == nil {
		for _, v := range col {
			sum += v
		}
	} else {
		for i, v := range col {
			sum += k.weights[i] * v
		}
	}
	return sum * k.inv
}

// columnMedian returns the median of a gathered column, reordering it.
func columnMedian(col []float64) float64 {
	sortColumn(col)
	n := len(col)
	if n%2 == 1 {
		return col[n/2]
	}
	return 0.5 * (col[n/2-1] + col[n/2])
}

// reduceRows is the dense-rows driver: it writes the kernel's value
// for every coordinate of the equal-length rows into out, gathering
// each column straight out of the caller's slices.
func (k kernel) reduceRows(out []float64, rows [][]float64) {
	if k.rowwiseMean() {
		tensor.VecMean(out, rows)
		return
	}
	n := len(rows)
	forEachCoordChunk(len(out), n, k.workers, func(lo, hi int) {
		k := k // a chunk-local copy keeps the captured kernel off the heap
		s := getChunkScratch(n, k.winLen())
		col, win := s.col, s.win
		for j := lo; j < hi; j++ {
			for i, v := range rows {
				col[i] = v[j]
			}
			out[j] = k.reduce(col, win, s)
		}
		putChunkScratch(s)
	})
}

// payloadGatherTile is how many consecutive coordinates a gather
// worker stages at once. The tile keeps the per-worker scratch —
// entry lists in the all-sparse mode, a row buffer in the mixed mode
// — cache-resident instead of allocating d-sized vectors.
const payloadGatherTile = 256

// reducePayloads is the payload-tile driver: it aggregates codec
// payload views without densifying them. The unweighted mean adds
// each view into a zeroed accumulator (sparse views touch only their
// support, see compress.Payload.AddTo); every other kernel gathers
// columns tile by tile over the same forEachCoordChunk partition as
// reduceRows.
//
// When every view is sparse, columns outside the union support are
// never materialized: out[j] keeps its +0.0. Every kernel maps the
// all-zero column to exactly +0.0, so skipping is exact.
func (k kernel) reducePayloads(out []float64, ps []compress.Payload) {
	for i := range out {
		out[i] = 0
	}
	if k.rowwiseMean() {
		for i := range ps {
			ps[i].AddTo(out)
		}
		tensor.VecScale(out, k.inv)
		return
	}
	n := len(ps)
	allSparse := true
	for i := range ps {
		if _, _, ok := ps[i].Sparse(); !ok {
			allSparse = false
			break
		}
	}
	forEachCoordChunk(len(out), n, k.workers, func(lo, hi int) {
		k := k
		s := getChunkScratch(n, k.winLen())
		if allSparse {
			k.gatherSparseChunk(ps, lo, hi, s, out)
		} else {
			k.gatherMixedChunk(ps, lo, hi, s, out)
		}
		putChunkScratch(s)
	})
}

// gatherSparseChunk processes [lo, hi) of an all-sparse payload set
// tile by tile. Each tile scatters the views' in-range entries into
// per-column entry lists (one cursor per view — supports are strictly
// increasing, so each view is consumed in one forward pass), then
// reduces only the columns at least one view touched.
func (k *kernel) gatherSparseChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64) {
	n := len(ps)
	col, win := s.col, s.win
	cnt := grownInt32s(s.cnt, payloadGatherTile)
	entOwner := grownInt32s(s.entOwner, payloadGatherTile*n)
	entVal := grownFloats(s.entVal, payloadGatherTile*n)
	cur := grownInts(s.cur, n)
	s.cnt, s.entOwner, s.entVal, s.cur = cnt, entOwner, entVal, cur
	for i := range ps {
		idx, _, _ := ps[i].Sparse()
		cur[i] = sort.Search(len(idx), func(j int) bool { return int(idx[j]) >= lo })
	}
	for tlo := lo; tlo < hi; tlo += payloadGatherTile {
		thi := tlo + payloadGatherTile
		if thi > hi {
			thi = hi
		}
		w := thi - tlo
		for j := 0; j < w; j++ {
			cnt[j] = 0
		}
		for i := range ps {
			idx, val, _ := ps[i].Sparse()
			c := cur[i]
			for c < len(idx) && int(idx[c]) < thi {
				j := int(idx[c]) - tlo
				e := j*n + int(cnt[j])
				entOwner[e] = int32(i)
				entVal[e] = val[c]
				cnt[j]++
				c++
			}
			cur[i] = c
		}
		for j := 0; j < w; j++ {
			if cnt[j] == 0 {
				continue // untouched column: out[tlo+j] stays +0.0
			}
			for i := range col {
				col[i] = 0
			}
			base := j * n
			for e := 0; e < int(cnt[j]); e++ {
				col[entOwner[base+e]] = entVal[base+e]
			}
			out[tlo+j] = k.reduce(col, win, s)
		}
	}
}

// gatherMixedChunk processes [lo, hi) when at least one view is dense
// or quantized: every view gathers its tile slice into a shared row
// buffer (bounded n·tile, never n·d), and every column reduces.
func (k *kernel) gatherMixedChunk(ps []compress.Payload, lo, hi int, s *chunkScratch, out []float64) {
	n := len(ps)
	col, win := s.col, s.win
	rows := grownFloats(s.rows, n*payloadGatherTile)
	s.rows = rows
	for tlo := lo; tlo < hi; tlo += payloadGatherTile {
		thi := tlo + payloadGatherTile
		if thi > hi {
			thi = hi
		}
		w := thi - tlo
		for i := range ps {
			ps[i].GatherInto(rows[i*payloadGatherTile:i*payloadGatherTile+w], tlo, thi)
		}
		for j := 0; j < w; j++ {
			for i := 0; i < n; i++ {
				col[i] = rows[i*payloadGatherTile+j]
			}
			out[tlo+j] = k.reduce(col, win, s)
		}
	}
}

// weightedTrimmedMeanOf is trimmedMeanOf with per-value weights: drop
// the m smallest and m largest values (count-based, ties in input
// order), return Σwv/Σw over the kept values. col is scratch and may
// be reordered; weights is read-only (the mutable copy lives in s).
// Path selection, scan order and the final divide mirror trimmedMeanOf
// exactly, which is what makes weight ≡ 1 bit-identical.
func weightedTrimmedMeanOf(col, weights []float64, m int, win []float64, s *chunkScratch) float64 {
	n := len(col)
	if m == 0 {
		sum, wsum := 0.0, 0.0
		for i, v := range col {
			sum += weights[i] * v
			wsum += weights[i]
		}
		return sum / wsum
	}
	if !useSelection(n, m) {
		wcol := grownFloats(s.wcol, n)
		s.wcol = wcol
		copy(wcol, weights)
		sortColumnPairs(col, wcol, s)
		sum, wsum := 0.0, 0.0
		for i := m; i < n-m; i++ {
			sum += wcol[i] * col[i]
			wsum += wcol[i]
		}
		return sum / wsum
	}
	a, b := selectTrimBounds(col, m, win)
	if a == b {
		// Every kept rank holds the same value; the weighted average of
		// identical values is that value.
		return a
	}
	// Pass 1: classify values against the trim bounds, accumulating the
	// weighted sum of the strictly interior values in scan order.
	var (
		midSum, midW          float64
		cntLessA, cntGreaterB int
		ca, cb                int
	)
	for i, v := range col {
		switch {
		case v < a:
			cntLessA++
		case v > b:
			cntGreaterB++
		case v == a:
			ca++
		case v == b:
			cb++
		default:
			midSum += weights[i] * v
			midW += weights[i]
		}
	}
	// The low trim consumes the first trimA occurrences of a in input
	// order (stable-sort semantics) and the high trim the last trimB
	// occurrences of b; pass 2 sums the surviving occurrences' weights.
	trimA := m - cntLessA
	keptB := cb - (m - cntGreaterB)
	var wa, wb float64
	seenA, seenB := 0, 0
	for i, v := range col {
		if v == a {
			seenA++
			if seenA > trimA {
				wa += weights[i]
			}
		} else if v == b {
			seenB++
			if seenB <= keptB {
				wb += weights[i]
			}
		}
	}
	return (midSum + wa*a + wb*b) / (midW + wa + wb)
}

// weightedMedianOf returns the 50% weighted-rank order statistic:
// after a stable value sort, the first value whose cumulative weight
// exceeds half the total; landing exactly on half averages the
// straddling pair (0.5·(col[k]+col[k+1])), which reproduces the
// unweighted even-n midpoint at weight ≡ 1. col is scratch; weights is
// read-only.
func weightedMedianOf(col, weights []float64, s *chunkScratch) float64 {
	n := len(col)
	wcol := grownFloats(s.wcol, n)
	s.wcol = wcol
	copy(wcol, weights)
	sortColumnPairs(col, wcol, s)
	total := 0.0
	for _, w := range wcol {
		total += w
	}
	half := 0.5 * total
	cum := 0.0
	for k := 0; k < n; k++ {
		cum += wcol[k]
		if cum > half {
			return col[k]
		}
		if cum == half {
			// Weights are positive, so cum < total here and k+1 < n.
			return 0.5 * (col[k] + col[k+1])
		}
	}
	return col[n-1] // unreachable for positive weights; FP safety net
}

// wpair carries one column value and its weight through a stable sort.
type wpair struct{ v, w float64 }

// sortColumnPairs orders col ascending, applying the same permutation
// to w. The sort is stable — ties keep input order — so tie-trimming
// is deterministic and matches the selection path's first-occurrence
// accounting. Short columns use the same insertion sort as sortColumn
// (which is naturally stable); longer ones stable-sort value/weight
// pairs in pooled scratch.
func sortColumnPairs(col, w []float64, s *chunkScratch) {
	n := len(col)
	if n <= 32 {
		for i := 1; i < n; i++ {
			v, wv := col[i], w[i]
			j := i - 1
			for j >= 0 && col[j] > v {
				col[j+1], w[j+1] = col[j], w[j]
				j--
			}
			col[j+1], w[j+1] = v, wv
		}
		return
	}
	pairs := s.pairs
	if cap(pairs) < n {
		pairs = make([]wpair, n)
	}
	pairs = pairs[:n]
	s.pairs = pairs
	for i := range pairs {
		pairs[i] = wpair{v: col[i], w: w[i]}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
	for i, p := range pairs {
		col[i], w[i] = p.v, p.w
	}
}
