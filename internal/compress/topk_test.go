package compress

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"fedms/internal/randx"
)

// stableSortTopK is the reference top-k selection: a stable sort of
// every index by |v| descending, then the first k sorted ascending.
// It defines the index set the codec must pick on non-NaN inputs.
func stableSortTopK(v []float64, k int) []int {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return math.Abs(v[order[a]]) > math.Abs(v[order[b]])
	})
	pick := order[:k]
	sort.Ints(pick)
	return pick
}

// topkInput draws a length-d vector of the given kind.
func topkInput(kind string, rng *randx.RNG, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		switch kind {
		case "normal":
			v[i] = rng.NormFloat64()
		case "ties":
			// Five magnitudes over d coordinates: nearly every
			// threshold falls inside a long run of ties.
			v[i] = float64(rng.IntN(5) - 2)
		case "signed-zero-inf":
			switch rng.IntN(6) {
			case 0:
				v[i] = math.Copysign(0, -1)
			case 1:
				v[i] = 0
			case 2:
				v[i] = math.Inf(1)
			case 3:
				v[i] = math.Inf(-1)
			default:
				v[i] = float64(rng.IntN(3) - 1)
			}
		default:
			panic("unknown kind " + kind)
		}
	}
	return v
}

func checkTopKMatchesReference(t *testing.T, c *topkCodec, v []float64, k int) {
	t.Helper()
	c.sparsify(v, k, nil)
	want := stableSortTopK(v, k)
	if len(c.s.Indices) != len(want) {
		t.Fatalf("d=%d k=%d: kept %d entries, want %d", len(v), k, len(c.s.Indices), len(want))
	}
	for i, idx := range want {
		if int(c.s.Indices[i]) != idx {
			t.Fatalf("d=%d k=%d: entry %d has index %d, stable sort picks %d", len(v), k, i, c.s.Indices[i], idx)
		}
		if math.Float64bits(c.s.Values[i]) != math.Float64bits(v[idx]) {
			t.Fatalf("d=%d k=%d: entry %d value %v, want %v", len(v), k, i, c.s.Values[i], v[idx])
		}
	}
}

// TestTopKSelectionMatchesStableSort pins the linear-time selection to
// the stable sort it replaced: the same index set (|v| descending, then
// index ascending) and the same values, on normal, heavily tied and
// ±0/±Inf inputs.
func TestTopKSelectionMatchesStableSort(t *testing.T) {
	rng := randx.New(41)
	c := &topkCodec{}
	for _, kind := range []string{"normal", "ties", "signed-zero-inf"} {
		for _, d := range []int{1, 2, 3, 100042} {
			for _, k := range []int{1, d, 1 + rng.IntN(d)} {
				checkTopKMatchesReference(t, c, topkInput(kind, rng, d), k)
			}
		}
		// Many small random shapes, reusing one codec's scratch.
		for trial := 0; trial < 500; trial++ {
			d := 1 + rng.IntN(200)
			checkTopKMatchesReference(t, c, topkInput(kind, rng, d), 1+rng.IntN(d))
		}
	}
}

// TestTopKNaNRanksAboveInf checks that the codec keeps every NaN,
// whatever its sign bit, ahead of ±Inf and finite values, and that the
// payload it emits is a valid k-entry sparse encoding.
func TestTopKNaNRanksAboveInf(t *testing.T) {
	rng := randx.New(43)
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.IntN(300)
		v := topkInput("signed-zero-inf", rng, d)
		nans := map[int]bool{}
		for n := 1 + rng.IntN(d/2+1); n > 0; n-- {
			i := rng.IntN(d)
			v[i] = math.NaN()
			if rng.IntN(2) == 0 {
				v[i] = negNaN
			}
			nans[i] = true
		}
		ratio := float64(len(nans)+rng.IntN(d-len(nans)+1)) / float64(d)
		spec := fmt.Sprintf("topk:%g", ratio)
		k := TopK{Ratio: ratio}.k(d)
		enc, payload := newCodec(t, spec, 0).AppendEncode(nil, v)
		if enc != EncSparse {
			t.Fatalf("%s: encoding %v, want sparse", spec, enc)
		}
		if _, err := ParsePayload(enc, payload); err != nil {
			t.Fatalf("%s: payload does not parse: %v", spec, err)
		}
		s, err := DecodeSparse(payload)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if len(s.Indices) != k {
			t.Fatalf("%s: %d entries, want k=%d", spec, len(s.Indices), k)
		}
		kept := map[int]bool{}
		for i, idx := range s.Indices {
			if i > 0 && idx <= s.Indices[i-1] {
				t.Fatalf("%s: indices not strictly increasing at %d", spec, i)
			}
			kept[int(idx)] = true
		}
		for i := range nans {
			if !kept[i] {
				t.Fatalf("%s: NaN at index %d dropped (k=%d, %d NaNs)", spec, i, k, len(nans))
			}
		}
	}
}

// TestTopKSelectionLinearOnOrderedInputs guards the introselect's
// worst case: sorted, reverse-sorted and all-equal keys at d=1e5 must
// select in time of the same order as random keys. A quadratic
// quickselect would take ~1e10 steps on them, thousands of times the
// random-input time.
func TestTopKSelectionLinearOnOrderedInputs(t *testing.T) {
	const d = 100000
	rng := randx.New(47)
	random := make([]uint64, d)
	for i := range random {
		random[i] = rng.Uint64()
	}
	sorted := slices.Clone(random)
	slices.Sort(sorted)
	inputs := map[string][]uint64{"sorted": sorted}
	inputs["reverse-sorted"] = slices.Clone(inputs["sorted"])
	slices.Reverse(inputs["reverse-sorted"])
	inputs["all-equal"] = make([]uint64, d)
	organ := make([]uint64, d)
	for i := range organ {
		organ[i] = uint64(min(i, d-1-i))
	}
	inputs["organ-pipe"] = organ

	// Best of several runs, so a scheduling hiccup cannot fail the test.
	best := func(in []uint64) time.Duration {
		scratch := make([]uint64, d)
		b := time.Duration(math.MaxInt64)
		for rep := 0; rep < 5; rep++ {
			copy(scratch, in)
			start := time.Now()
			for _, n := range []int{0, d / 10, d / 2, d - 1} {
				selectKth(scratch, n)
			}
			b = min(b, time.Since(start))
		}
		return b
	}
	base := best(random)
	for name, in := range inputs {
		if got := best(in); got > 20*base+20*time.Millisecond {
			t.Errorf("%s: selection took %v, random keys %v", name, got, base)
		}
	}
}

func BenchmarkTopKEncode(b *testing.B) {
	const d = 100042
	v := codecTestVec(7, d)
	c := newCodec(b, "topk:0.1", 0)
	var buf []byte
	b.SetBytes(8 * d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, buf = c.AppendEncode(buf[:0], v)
	}
}
