package aggregate

import (
	"math"
	"strings"
	"testing"

	"fedms/internal/compress"
	"fedms/internal/randx"
)

// wrapViews wraps dense vectors as zero-copy DensePayload views.
func wrapViews(vecs [][]float64) []compress.Payload {
	ps := make([]compress.Payload, len(vecs))
	for i, v := range vecs {
		ps[i] = compress.DensePayload(v)
	}
	return ps
}

// TestPlanPathSelection pins the one place that picks the aggregation
// path: sharded for PerCoordinate rules with Shards > 1, fused for
// PerCoordinate rules otherwise, and the densify-first fallback — with
// the oracle's evals counted — for everything else, NoFuse included.
func TestPlanPathSelection(t *testing.T) {
	r := randx.New(3)
	vecs := randomVecs(r, 7, 96)
	views := wrapViews(vecs)
	oracle := func(m []float64) float64 { return m[0] * m[0] }
	cases := []struct {
		plan      Plan
		weighted  bool
		want      Path
		wantEvals int
	}{
		{Plan{Rule: Mean{}}, false, PathFused, 0},
		{Plan{Rule: TrimmedMean{Beta: 0.2}}, true, PathFused, 0},
		{Plan{Rule: CoordinateMedian{}, Shards: 4}, false, PathSharded, 0},
		{Plan{Rule: Mean{}, Shards: 4}, true, PathSharded, 0},
		{Plan{Rule: Mean{}, Shards: 1}, false, PathFused, 0},
		{Plan{Rule: NoFuse{Rule: Mean{}}, Shards: 4}, false, PathFallback, 0},
		{Plan{Rule: Krum{F: 1}, Shards: 4}, false, PathFallback, 0},
		{Plan{Rule: FedGreed{}}, false, PathFallback, 0},
		{Plan{Rule: FedGreed{}, Oracle: oracle, Shards: 4}, false, PathFallback, 2 * len(vecs)},
		{Plan{Rule: NoFuse{Rule: FedGreed{}}, Oracle: oracle}, false, PathFallback, 0},
	}
	for _, tc := range cases {
		var weights []float64
		if tc.weighted {
			weights = onesWeights(len(views))
		}
		res := tc.plan.run(nil, views, weights)
		if res.Path != tc.want || res.Evals != tc.wantEvals {
			t.Errorf("%s shards=%d weighted=%v: path %d evals %d, want %d and %d",
				tc.plan.Rule.Name(), tc.plan.Shards, tc.weighted, res.Path, res.Evals, tc.want, tc.wantEvals)
		}
		if (res.Path == PathSharded) != (res.PeakBytes > 0) {
			t.Errorf("%s: path %d reported peak %d bytes", tc.plan.Rule.Name(), res.Path, res.PeakBytes)
		}
	}
}

// TestPlanReducesInIDOrder: every path reduces rows in ascending id
// order whatever the offer order, so a PS barrier that offers uploads
// as they arrive matches the engine, which offers them sorted.
func TestPlanReducesInIDOrder(t *testing.T) {
	r := randx.New(5)
	const n, d = 9, 300
	vecs := randomVecs(r, n, d)
	weights := stalenessWeights(randx.New(6), n, 3)
	sparse, _ := encodeViews(t, "topk:0.25", vecs, 17)
	for _, views := range [][]compress.Payload{wrapViews(vecs), sparse} {
		for _, plan := range []Plan{
			{Rule: Mean{}}, {Rule: TrimmedMean{Beta: 0.2}}, {Rule: CoordinateMedian{}, Shards: 3},
			{Rule: GeoMedian{}},
		} {
			for _, w := range [][]float64{nil, weights} {
				if w != nil && !PerCoordinate(plan.Rule) {
					continue
				}
				want := plan.run(nil, views, w).Out
				s := plan.Start(d, 0)
				for _, id := range randx.Perm(randx.New(11), n) {
					wt := 0.0
					if w != nil {
						wt = w[id]
					}
					if err := s.Offer(id, views[id], wt); err != nil {
						t.Fatal(err)
					}
				}
				res, err := s.Finalize(nil)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, plan.Rule.Name()+"/shuffled", res.Out, want)
			}
		}
	}
}

// TestPlanDenseRowsMatchTiles: the dense-rows driver the plan runs
// over wrapped slices is bit-identical to the payload-tile driver over
// the same vectors encoded as dense wire bytes, for every kernel in the
// table, weighted and unweighted, serial and parallel.
func TestPlanDenseRowsMatchTiles(t *testing.T) {
	r := randx.New(7)
	for _, n := range []int{3, 10, 40} {
		d := minParallelWork/n + 7 // past the parallel work gate
		vecs := randomVecs(r, n, d)
		wire, _ := encodeViews(t, "dense", vecs, 19)
		weights := stalenessWeights(randx.New(8), n, 2)
		for _, rule := range []Rule{
			Mean{}, TrimmedMean{Beta: 0.2, Workers: 4}, TrimmedMean{Trim: 1}, CoordinateMedian{Workers: 4},
		} {
			for _, w := range [][]float64{nil, weights} {
				rows := Plan{Rule: rule}.run(nil, wrapViews(vecs), w)
				tiles := Plan{Rule: rule}.run(nil, wire, w)
				if rows.Path != PathFused || tiles.Path != PathFused {
					t.Fatalf("%s: paths %d/%d, want fused", rule.Name(), rows.Path, tiles.Path)
				}
				assertBitIdentical(t, rule.Name()+"/n="+itoa(n), rows.Out, tiles.Out)
			}
		}
	}
}

// TestPlanReusesDst: fused and sharded results land in dst when its
// capacity suffices; a dirty dst never leaks into the result.
func TestPlanReusesDst(t *testing.T) {
	vecs := randomVecs(randx.New(9), 5, 64)
	want := TrimmedMean{Beta: 0.2}.Aggregate(vecs)
	for _, shards := range []int{0, 4} {
		dst := make([]float64, 64)
		for i := range dst {
			dst[i] = math.NaN()
		}
		res := Plan{Rule: TrimmedMean{Beta: 0.2}, Shards: shards}.run(dst, wrapViews(vecs), nil)
		if &res.Out[0] != &dst[0] {
			t.Fatalf("shards=%d: dst not reused", shards)
		}
		assertBitIdentical(t, "reused", res.Out, want)
	}
}

// TestPlanRejectsBadOffers: Offer and Finalize return errors — never
// panic — on a wrong dimension, an invalid weight, mixed weighting, a
// weighting the rule cannot apply, an empty member set and a finished
// stream. A rejected row is not counted.
func TestPlanRejectsBadOffers(t *testing.T) {
	good := compress.DensePayload([]float64{1, 2, 3})
	short := compress.DensePayload([]float64{1, 2})
	for _, shards := range []int{0, 2} {
		s := Plan{Rule: Mean{}, Shards: shards}.Start(3, 0)
		for _, bad := range []struct {
			p    compress.Payload
			w    float64
			want string
		}{
			{short, 0, "dim 2, want 3"},
			{good, -1, "weight"},
			{good, math.NaN(), "weight"},
			{good, math.Inf(1), "weight"},
		} {
			if err := s.Offer(0, bad.p, bad.w); err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Fatalf("shards=%d: Offer(dim %d, w %v) = %v, want %q", shards, bad.p.Dim(), bad.w, err, bad.want)
			}
		}
		if _, err := s.Finalize(nil); err == nil || !strings.Contains(err.Error(), "empty") {
			t.Fatalf("shards=%d: Finalize after only rejected rows = %v, want empty input", shards, err)
		}
		if err := s.Offer(0, good, 0); err == nil {
			t.Fatalf("shards=%d: Offer on a finished stream accepted", shards)
		}

		s = Plan{Rule: Mean{}, Shards: shards}.Start(0, 0) // dim from the first view
		if err := s.Offer(0, good, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Offer(1, good, 0); err == nil || !strings.Contains(err.Error(), "mixes") {
			t.Fatalf("shards=%d: mixed weighting = %v", shards, err)
		}
		if err := s.Offer(2, short, 1); err == nil {
			t.Fatalf("shards=%d: the first view did not fix the dimension", shards)
		}
		res, err := s.Finalize(nil)
		if err != nil || len(res.Out) != 3 || res.Out[1] != 2 {
			t.Fatalf("shards=%d: Finalize = %v, %v; want the single accepted row", shards, res.Out, err)
		}
		if _, err := s.Finalize(nil); err == nil {
			t.Fatalf("shards=%d: second Finalize accepted", shards)
		}
		s.Abort() // safe after Finalize
	}
	s := Plan{Rule: Krum{}}.Start(3, 0)
	if err := s.Offer(0, good, 0.5); err == nil || !strings.Contains(err.Error(), "no weighted kernel") {
		t.Fatalf("weighted Krum = %v", err)
	}
}

// TestPlanTally pins the Result → metric mapping every runtime shares.
func TestPlanTally(t *testing.T) {
	var tally Tally
	for _, r := range []Result{
		{Path: PathFused}, {Path: PathFused}, {Path: PathFallback, Evals: 6},
		{Path: PathSharded, PeakBytes: 40}, {Path: PathSharded, PeakBytes: 24},
	} {
		tally.Add(r)
	}
	want := Tally{Fused: 2, Fallback: 1, Sharded: 2, Evals: 6, PeakBytes: 40}
	if tally != want {
		t.Fatalf("tally %+v, want %+v", tally, want)
	}
}
