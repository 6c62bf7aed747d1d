package aggregate

import (
	"errors"
	"fmt"
	"sort"

	"fedms/internal/compress"
)

// Plan is how one aggregation runs: the rule, the coordinate-shard
// fan-out and the optional holdout-loss oracle. It is the only place
// that picks the aggregation path; the engine's server loops, the PS
// barriers and both client filters all aggregate through it.
//
// The path is a pure function of the plan and the member set:
//
//   - PathSharded when Shards > 1 and the rule is PerCoordinate: rows
//     stream into the two-tier shard tree as they are offered
//     (shard.go), and the full K×d matrix never exists.
//   - PathFused when the rule is PerCoordinate: the rule's coordKernel
//     runs over the dense rows directly when every view wraps a slice
//     (compress.DensePayload), and over the payload views' tiles
//     otherwise. Codec payloads are never densified.
//   - PathFallback for every other rule: the views are densified and
//     the rule's Aggregate runs, or AggregateWithLoss when the rule is
//     a LossRule and Oracle is set (Result.Evals counts its calls).
//
// Rows may be weighted (the async scheduler's staleness weights) or
// unweighted; at weight ≡ 1 both agree bit for bit. All three paths
// reduce rows in ascending id order whatever the offer order, so every
// path is bit-identical to every other for the same member set.
type Plan struct {
	Rule   Rule
	Shards int
	Oracle LossEval
}

// Path names the aggregation path a Stream took.
type Path uint8

const (
	// PathFused ran the rule's per-coordinate kernel over the views.
	PathFused Path = iota
	// PathFallback densified the views first (including the oracle path).
	PathFallback
	// PathSharded ran the coordinate-sharded tree.
	PathSharded
)

// Result is one finished aggregation.
type Result struct {
	// Out holds the aggregate: dst when the path could reuse it, a
	// fresh vector otherwise. Callers must use Out, not dst.
	Out  []float64
	Path Path
	// PeakBytes is the largest per-shard accumulator footprint on the
	// sharded path (0 elsewhere): the measured side of the O(K·d/S)
	// memory bound.
	PeakBytes int64
	// Evals counts holdout-loss oracle calls.
	Evals int
}

// Tally accumulates Results the way every runtime exports them: one
// count per path (the *_agg_{fused,fallback,sharded}_total metrics),
// the oracle evals, and the largest shard peak.
type Tally struct {
	Fused, Fallback, Sharded int
	Evals                    int
	PeakBytes                int64
}

// Add counts one Result.
func (t *Tally) Add(r Result) {
	switch r.Path {
	case PathFused:
		t.Fused++
	case PathSharded:
		t.Sharded++
	default:
		t.Fallback++
	}
	t.Evals += r.Evals
	if r.PeakBytes > t.PeakBytes {
		t.PeakBytes = r.PeakBytes
	}
}

// Stream is one aggregation in progress: Offer each member, then
// Finalize (or Abort). It is used from one goroutine and is one-shot.
type Stream struct {
	plan     Plan
	dim      int
	rowsHint int
	n        int
	weighted bool
	done     bool
	rows     memberRows // the unsharded paths keep the views until Finalize
	tree     *sharded
}

// memberRows holds the offered members as parallel slices, sortable by
// id without allocating.
type memberRows struct {
	ids   []int
	ws    []float64
	views []compress.Payload
}

func (m *memberRows) Len() int           { return len(m.ids) }
func (m *memberRows) Less(a, b int) bool { return m.ids[a] < m.ids[b] }
func (m *memberRows) Swap(a, b int) {
	m.ids[a], m.ids[b] = m.ids[b], m.ids[a]
	m.ws[a], m.ws[b] = m.ws[b], m.ws[a]
	m.views[a], m.views[b] = m.views[b], m.views[a]
}

var errStreamDone = errors.New("aggregate: stream already finalized or aborted")

// Start begins one aggregation over vectors of dimension dim; dim ≤ 0
// takes the dimension from the first offered view. rowsHint, when
// positive, presizes the member buffers (and each shard's block).
func (p Plan) Start(dim, rowsHint int) *Stream {
	s := &Stream{plan: p, dim: dim, rowsHint: rowsHint}
	if dim > 0 {
		s.startTree()
	}
	return s
}

func (s *Stream) startTree() {
	if s.plan.Shards > 1 && PerCoordinate(s.plan.Rule) {
		s.tree = newSharded(s.plan.Rule, s.dim, s.plan.Shards, s.rowsHint)
	}
}

// Offer adds one member. id orders the member (rows reduce in
// ascending id order) and must be unique within the stream. weight 0
// marks an unweighted row; a positive finite weight a weighted one,
// which only PerCoordinate rules accept. Every row of a stream must be
// weighted or every row unweighted. On the sharded path the view (and
// its backing buffer) must stay valid until Finalize or Abort returns.
//
// Offer rejects — and does not count — a view whose dimension differs
// from the stream's, an invalid weight, or a weighting the rule cannot
// apply; the caller decides whether that fails the aggregation.
func (s *Stream) Offer(id int, p compress.Payload, weight float64) error {
	if s.done {
		return errStreamDone
	}
	if s.dim <= 0 && s.n == 0 {
		s.dim = p.Dim()
		s.startTree()
	}
	weighted := weight != 0
	switch {
	case p.Dim() != s.dim:
		return fmt.Errorf("aggregate: %s input %d has dim %d, want %d", s.plan.Rule.Name(), id, p.Dim(), s.dim)
	case weighted && (!(weight > 0) || weight > 1e300):
		return fmt.Errorf("aggregate: %s input %d has weight %v, want positive and finite", s.plan.Rule.Name(), id, weight)
	case weighted && !PerCoordinate(s.plan.Rule):
		return fmt.Errorf("aggregate: rule %s has no weighted kernel", s.plan.Rule.Name())
	case s.n > 0 && weighted != s.weighted:
		return fmt.Errorf("aggregate: %s input %d mixes weighted and unweighted rows", s.plan.Rule.Name(), id)
	}
	s.weighted = weighted
	s.n++
	if s.tree != nil {
		s.tree.offer(id, p, weight)
		return nil
	}
	if s.rows.ids == nil {
		s.rows = memberRows{
			ids:   make([]int, 0, s.rowsHint),
			ws:    make([]float64, 0, s.rowsHint),
			views: make([]compress.Payload, 0, s.rowsHint),
		}
	}
	s.rows.ids = append(s.rows.ids, id)
	s.rows.ws = append(s.rows.ws, weight)
	s.rows.views = append(s.rows.views, p)
	return nil
}

// Finalize aggregates the offered members, reusing dst's storage when
// the path allows it. It fails on an empty member set.
func (s *Stream) Finalize(dst []float64) (Result, error) {
	if s.done {
		return Result{}, errStreamDone
	}
	if s.n == 0 {
		s.Abort()
		return Result{}, fmt.Errorf("aggregate: %s on empty input", s.plan.Rule.Name())
	}
	s.done = true
	if s.tree != nil {
		out := s.tree.finalize(dst, s.weighted)
		return Result{Out: out, Path: PathSharded, PeakBytes: s.tree.peak.Load()}, nil
	}
	rows := &s.rows
	if !sort.IsSorted(rows) {
		sort.Sort(rows)
	}
	var weights []float64
	if s.weighted {
		weights = rows.ws
	}
	if k, ok := coordKernel(s.plan.Rule, rows.Len(), weights); ok {
		out := ensureVec(dst, s.dim)
		if vecs, ok := wrappedRows(rows.views); ok {
			k.reduceRows(out, vecs)
		} else {
			k.reducePayloads(out, rows.views)
		}
		return Result{Out: out, Path: PathFused}, nil
	}
	vecs := make([][]float64, rows.Len())
	for i := range rows.views {
		vecs[i] = rows.views[i].DenseView()
	}
	if lr, ok := s.plan.Rule.(LossRule); ok && s.plan.Oracle != nil {
		res := Result{Path: PathFallback}
		counted := func(m []float64) float64 { res.Evals++; return s.plan.Oracle(m) }
		res.Out = lr.AggregateWithLoss(vecs, counted)
		return res, nil
	}
	return Result{Out: s.plan.Rule.Aggregate(vecs), Path: PathFallback}, nil
}

// Abort discards the stream without aggregating; the shard tree's
// goroutines exit. Safe after partial Offers and after Finalize.
func (s *Stream) Abort() {
	if !s.done && s.tree != nil {
		s.tree.abort()
	}
	s.done = true
	s.rows = memberRows{}
}

// wrappedRows returns the slices the views wrap when every view is a
// compress.DensePayload, so the dense-rows driver reads them in place.
func wrappedRows(views []compress.Payload) ([][]float64, bool) {
	vecs := make([][]float64, len(views))
	for i := range views {
		v, ok := views[i].Vec()
		if !ok {
			return nil, false
		}
		vecs[i] = v
	}
	return vecs, true
}

// run aggregates a whole member set, members in slice order (weights
// nil = unweighted). Inputs the stream rejects panic, as they do in
// the rules themselves.
func (p Plan) run(dst []float64, ps []compress.Payload, weights []float64) Result {
	s := p.Start(0, len(ps))
	for i := range ps {
		w := 0.0
		if weights != nil {
			if w = weights[i]; w == 0 {
				panic(fmt.Sprintf("aggregate: %s input %d has weight 0, want positive", p.Rule.Name(), i))
			}
		}
		s.mustOffer(i, ps[i], w)
	}
	return s.mustFinalize(dst)
}

func (s *Stream) mustOffer(id int, p compress.Payload, weight float64) {
	if err := s.Offer(id, p, weight); err != nil {
		s.Abort()
		panic(err.Error())
	}
}

func (s *Stream) mustFinalize(dst []float64) Result {
	res, err := s.Finalize(dst)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// AggregatePayloadsWithOracleInto aggregates payload views (in member
// order) under r with an optional oracle; fused reports PathFused.
func AggregatePayloadsWithOracleInto(r Rule, dst []float64, ps []compress.Payload, eval LossEval) (out []float64, fused bool, oracleEvals int) {
	res := Plan{Rule: r, Oracle: eval}.run(dst, ps, nil)
	return res.Out, res.Path == PathFused, res.Evals
}

// AggregateWithOracleInto aggregates dense vectors (in member order)
// under r with an optional oracle, through zero-copy DensePayload
// views.
func AggregateWithOracleInto(r Rule, dst []float64, vecs [][]float64, eval LossEval) (out []float64, oracleEvals int) {
	s := Plan{Rule: r, Oracle: eval}.Start(0, len(vecs))
	for i, v := range vecs {
		s.mustOffer(i, compress.DensePayload(v), 0)
	}
	res := s.mustFinalize(dst)
	return res.Out, res.Evals
}

// AggregateWeightedPayloads aggregates weighted payload views (in
// member order) under r; fused reports PathFused. It panics when r is
// not PerCoordinate.
func AggregateWeightedPayloads(r Rule, dst []float64, ps []compress.Payload, weights []float64) (out []float64, fused bool) {
	if len(weights) != len(ps) {
		panic(fmt.Sprintf("aggregate: %s got %d weights for %d inputs", r.Name(), len(weights), len(ps)))
	}
	res := Plan{Rule: r}.run(dst, ps, weights)
	return res.Out, res.Path == PathFused
}

// NoFuse hides a rule's per-coordinate kernels, forcing the plan onto
// the densify-first fallback (and off the sharded and oracle paths).
// It is the control arm of the differential and chaos-parity tests.
// Note that WithWorkers does not see through the wrapper; set the
// inner rule's Workers field explicitly if parallelism matters.
type NoFuse struct{ Rule }
