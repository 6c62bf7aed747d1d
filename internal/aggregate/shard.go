package aggregate

import (
	"sort"
	"sync"
	"sync/atomic"

	"fedms/internal/compress"
)

// This file is the two-tier aggregation tree (DESIGN.md §6): a shard
// router partitions the coordinate space [0, d) into S contiguous
// shards, uploads stream through S bounded queues, and each shard
// incrementally transposes its column range into a bounded column-major
// block on its own goroutine. When the input set is complete the shard
// runs the unsharded rules' own coordKernel over its range (this file
// is the kernel table's third gather driver), and
// the root accumulator is simply the shared output vector the shards'
// disjoint ranges concatenate into.
//
// The contract is strict bit-identity with the unsharded path, by
// construction rather than by tolerance:
//
//   - Rows are sorted by member id before reduction, so every
//     coordinate's column is gathered in exactly the ascending-id order
//     the engine and PS aggregate in.
//   - The per-coordinate kernel is the unsharded rules' own coordKernel:
//     the trim count, selection-path choice and sort routine are pure
//     functions of (n, m) and never of the shard geometry.
//   - An all-sparse shard leaves untouched columns at +0.0, matching
//     gatherSparseChunk; every coordKernel maps an all-zero column to
//     exactly +0.0, so skipping is exact.
//
// Memory per shard is O(K·d/S): a capRows × width column-major block
// for dense/quantized rows plus an entry arena holding only the
// in-range support of sparse rows — with topk payloads no block is
// ever allocated and the shard holds only the support. No site holds
// the full K×d matrix.

// shardQueueDepth bounds each shard's ingest queue. A full queue blocks
// offer — the router's backpressure — so a slow shard throttles intake
// instead of buffering unboundedly.
const shardQueueDepth = 64

// shardMsg is one routed upload: the member id that orders the row at
// reduce time, the payload view to transpose, and the row's
// aggregation weight (1 on the unweighted path).
type shardMsg struct {
	id int
	p  compress.Payload
	w  float64
}

// shardRow records one ingested row of a shard: dense rows live in the
// column-major block at slot, sparse rows own the arena entry range
// [start, end). w is the row's aggregation weight.
type shardRow struct {
	id    int
	slot  int // block column slot; -1 for sparse rows
	start int
	end   int
	w     float64
}

// shardRowBytes is the accounting size of one shardRow (four ints plus
// the weight).
const shardRowBytes = 40

// sharded is the tree behind one sharded Stream (one PS round): offer
// is called from the stream's goroutine, and finalize (or abort)
// completes the tree.
type sharded struct {
	rule     Rule
	d        int
	weighted bool
	shards   []*aggShard
	queues   []chan shardMsg
	wg       sync.WaitGroup
	out      []float64
	aborted  atomic.Bool
	peak     atomic.Int64
}

// newSharded builds the shard tree for a PerCoordinate rule r over
// dimension d ≥ 1 with at most shards ≥ 2 shards. rowsHint, when
// positive, presizes each shard for that many member rows.
func newSharded(r Rule, d, shards, rowsHint int) *sharded {
	if shards > d {
		shards = d
	}
	width := (d + shards - 1) / shards
	s := &sharded{rule: r, d: d}
	for lo := 0; lo < d; lo += width {
		hi := lo + width
		if hi > d {
			hi = d
		}
		sh := &aggShard{parent: s, lo: lo, hi: hi, rowsHint: rowsHint}
		q := make(chan shardMsg, shardQueueDepth)
		s.shards = append(s.shards, sh)
		s.queues = append(s.queues, q)
		s.wg.Add(1)
		go sh.run(q)
	}
	return s
}

// offer routes one member's payload to every shard. It blocks when a
// shard's queue is full — backpressure, not loss. The payload view
// (and its backing buffer) must stay valid until finalize or abort
// returns.
func (s *sharded) offer(id int, p compress.Payload, w float64) {
	for i := range s.queues {
		s.queues[i] <- shardMsg{id: id, p: p, w: w}
	}
}

// finalize completes the stream: every shard reduces its column range
// as soon as it drains its queue, and the concatenated result — stored
// in dst when its capacity suffices — is returned.
func (s *sharded) finalize(dst []float64, weighted bool) []float64 {
	out := ensureVec(dst, s.d)
	for i := range out {
		out[i] = 0
	}
	s.out, s.weighted = out, weighted // published to the shard goroutines by the closes below
	for i := range s.queues {
		close(s.queues[i])
	}
	s.wg.Wait()
	return out
}

// abort tears the tree down without reducing: queues are closed and
// every shard goroutine exits.
func (s *sharded) abort() {
	s.aborted.Store(true)
	for i := range s.queues {
		close(s.queues[i])
	}
	s.wg.Wait()
}

// aggShard owns one contiguous coordinate range [lo, hi).
type aggShard struct {
	parent   *sharded
	lo, hi   int
	rowsHint int

	rows    []shardRow
	block   []float64 // column-major: block[jl*capRows + slot]
	capRows int
	nslots  int
	entIdx  []uint32 // sparse entry arena: range-local coordinates
	entVal  []float64
	scratch []float64 // width-sized dense gather scratch
}

// run is the shard goroutine: ingest every routed row, then — unless
// aborted — reduce the completed column range into the shared output.
func (sh *aggShard) run(q chan shardMsg) {
	defer sh.parent.wg.Done()
	for msg := range q {
		sh.ingest(msg)
	}
	if !sh.parent.aborted.Load() {
		sh.reduce(sh.parent.out)
	}
	// Record this shard's peak accumulator footprint.
	mem := int64(8*cap(sh.block)) + int64(4*cap(sh.entIdx)) + int64(8*cap(sh.entVal)) +
		int64(shardRowBytes*cap(sh.rows)) + int64(8*cap(sh.scratch))
	for {
		cur := sh.parent.peak.Load()
		if mem <= cur || sh.parent.peak.CompareAndSwap(cur, mem) {
			return
		}
	}
}

// ingest transposes one row into the shard's accumulators: sparse rows
// append their in-range support to the entry arena, every other
// encoding gathers its range and scatters it into the column-major
// block.
func (sh *aggShard) ingest(msg shardMsg) {
	if sh.rows == nil && sh.rowsHint > 0 {
		sh.rows = make([]shardRow, 0, sh.rowsHint)
	}
	if idx, val, ok := msg.p.Sparse(); ok {
		start := len(sh.entIdx)
		c := sort.Search(len(idx), func(i int) bool { return int(idx[i]) >= sh.lo })
		for ; c < len(idx) && int(idx[c]) < sh.hi; c++ {
			sh.entIdx = append(sh.entIdx, idx[c]-uint32(sh.lo))
			sh.entVal = append(sh.entVal, val[c])
		}
		sh.rows = append(sh.rows, shardRow{id: msg.id, slot: -1, start: start, end: len(sh.entIdx), w: msg.w})
		return
	}
	width := sh.hi - sh.lo
	if sh.scratch == nil {
		sh.scratch = make([]float64, width)
	}
	if sh.nslots == sh.capRows {
		sh.growBlock(width)
	}
	slot := sh.nslots
	sh.nslots++
	msg.p.GatherInto(sh.scratch, sh.lo, sh.hi)
	for jl, v := range sh.scratch {
		sh.block[jl*sh.capRows+slot] = v
	}
	sh.rows = append(sh.rows, shardRow{id: msg.id, slot: slot, w: msg.w})
}

// growBlock doubles the block's row capacity, re-striding the existing
// columns.
func (sh *aggShard) growBlock(width int) {
	newCap := sh.capRows * 2
	if newCap == 0 {
		newCap = 64
		if sh.rowsHint > 0 {
			newCap = sh.rowsHint
		}
	}
	next := make([]float64, width*newCap)
	for jl := 0; jl < width; jl++ {
		copy(next[jl*newCap:jl*newCap+sh.nslots], sh.block[jl*sh.capRows:jl*sh.capRows+sh.nslots])
	}
	sh.block, sh.capRows = next, newCap
}

// reduce runs the rule's per-coordinate kernel over the completed
// column range, writing out[lo:hi]. Rows are ordered by ascending id
// first so each gathered column matches the unsharded member order bit
// for bit.
func (sh *aggShard) reduce(out []float64) {
	n := len(sh.rows)
	if n == 0 {
		return // the stream already rejected the empty aggregation
	}
	sort.Slice(sh.rows, func(a, b int) bool { return sh.rows[a].id < sh.rows[b].id })
	var wrow []float64
	if sh.parent.weighted {
		// Row weights in sorted order; a fresh slice, not chunk scratch,
		// because the weighted kernels use s.wcol for their own copies.
		wrow = make([]float64, n)
		for i := range sh.rows {
			wrow[i] = sh.rows[i].w
		}
	}
	k, _ := coordKernel(sh.parent.rule, n, wrow)
	width := sh.hi - sh.lo
	s := getChunkScratch(n, k.winLen())
	col, win := s.col, s.win
	curs := grownInts(s.cur, n)
	s.cur = curs
	for i := range curs {
		curs[i] = 0
	}
	if sh.nslots == 0 {
		// All-sparse: count per-column entries once, reduce only touched
		// columns; untouched columns keep the output's +0.0, exactly as
		// the unsharded sparse gather leaves them.
		cnt := grownInt32s(s.cnt, width)
		s.cnt = cnt
		for j := range cnt {
			cnt[j] = 0
		}
		for _, e := range sh.entIdx {
			cnt[e]++
		}
		for jl := 0; jl < width; jl++ {
			if cnt[jl] == 0 {
				continue
			}
			sh.gatherColumn(col, curs, jl)
			out[sh.lo+jl] = k.reduce(col, win, s)
		}
	} else {
		for jl := 0; jl < width; jl++ {
			sh.gatherColumn(col, curs, jl)
			out[sh.lo+jl] = k.reduce(col, win, s)
		}
	}
	putChunkScratch(s)
}

// gatherColumn fills col with coordinate lo+jl of every row in sorted
// order: dense rows read their block slot, sparse rows consume their
// next arena entry when it matches (columns are visited in ascending
// order, so one forward cursor per row suffices).
func (sh *aggShard) gatherColumn(col []float64, curs []int, jl int) {
	for i := range sh.rows {
		r := &sh.rows[i]
		if r.slot >= 0 {
			col[i] = sh.block[jl*sh.capRows+r.slot]
			continue
		}
		v := 0.0
		if c := r.start + curs[i]; c < r.end && sh.entIdx[c] == uint32(jl) {
			v = sh.entVal[c]
			curs[i]++
		}
		col[i] = v
	}
}
