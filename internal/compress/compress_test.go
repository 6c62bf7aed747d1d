package compress

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// encodeSpec runs v through a fresh codec for spec and returns the
// payload tag and bytes.
func encodeSpec(t testing.TB, spec string, seed uint64, v []float64) (Encoding, []byte) {
	t.Helper()
	return newCodec(t, spec, seed).AppendEncode(nil, v)
}

func newCodec(t testing.TB, spec string, seed uint64) Codec {
	t.Helper()
	sp, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.NewCodec(seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// roundTrip encodes v with a fresh codec for spec and decodes it.
func roundTrip(t testing.TB, spec string, seed uint64, v []float64) []float64 {
	t.Helper()
	return decodeWith(t, newCodec(t, spec, seed), v)
}

// decodeWith encodes v with c and decodes it.
func decodeWith(t testing.TB, c Codec, v []float64) []float64 {
	t.Helper()
	enc, payload := c.AppendEncode(nil, v)
	return decodeDense(t, enc, payload)
}

// decodeDense densifies a payload, failing the test on a decode error.
func decodeDense(t testing.TB, enc Encoding, payload []byte) []float64 {
	t.Helper()
	out, err := DecodePayload(enc, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sparseDense densifies a decoded Sparse.
func sparseDense(s *Sparse) []float64 {
	out := make([]float64, s.Dim)
	for i, idx := range s.Indices {
		out[idx] = s.Values[i]
	}
	return out
}

func TestTopKKeepsLargestMagnitudes(t *testing.T) {
	v := []float64{0.1, -5, 2, 0, 3, -0.5}
	dense := roundTrip(t, "topk:0.5", 0, v)
	want := []float64{0, -5, 2, 0, 3, 0}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("TopK dense = %v, want %v", dense, want)
		}
	}
}

func TestTopKRatio(t *testing.T) {
	v := make([]float64, 100)
	randx.Normal(randx.New(1), v, 0, 1)
	_, payload := encodeSpec(t, "topk:0.1", 0, v)
	s, err := DecodeSparse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Indices) != 10 {
		t.Fatalf("kept %d entries, want 10", len(s.Indices))
	}
}

func TestTopKClamps(t *testing.T) {
	v := []float64{1, 2}
	for _, tc := range []struct {
		spec string
		want int
	}{
		{"topk:1", 2},      // never more than dim
		{"topk:0.0001", 1}, // never fewer than one
	} {
		_, payload := encodeSpec(t, tc.spec, 0, v)
		s, err := DecodeSparse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Indices) != tc.want {
			t.Fatalf("%s kept %d entries, want %d", tc.spec, len(s.Indices), tc.want)
		}
	}
}

func TestTopKIsBestKTermApproximation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		v := make([]float64, 50)
		randx.Normal(randx.New(seed), v, 0, 1)
		dense := roundTrip(t, "topk:0.2", 0, v)
		// Residual magnitude of kept entries is 0; any dropped entry
		// must be <= any kept entry in magnitude.
		minKept := math.Inf(1)
		maxDropped := 0.0
		for i := range v {
			if dense[i] != 0 {
				minKept = math.Min(minKept, math.Abs(v[i]))
			} else {
				maxDropped = math.Max(maxDropped, math.Abs(v[i]))
			}
		}
		return maxDropped <= minKept+1e-12
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandKUnbiased(t *testing.T) {
	v := make([]float64, 64)
	randx.Normal(randx.New(3), v, 0, 1)
	acc := make([]float64, 64)
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		dense := roundTrip(t, "randk:0.25", uint64(trial), v)
		tensor.VecAdd(acc, dense)
	}
	tensor.VecScale(acc, 1.0/trials)
	if d := tensor.VecDist2(acc, v); d > 0.35 {
		t.Fatalf("RandK biased: E[C(v)] deviates from v by %v", d)
	}
}

func TestRandKDeterministicPerSeed(t *testing.T) {
	v := make([]float64, 32)
	randx.Normal(randx.New(4), v, 0, 1)
	_, a := encodeSpec(t, "randk:0.25", 5, v)
	_, b := encodeSpec(t, "randk:0.25", 5, v)
	if string(a) != string(b) {
		t.Fatal("RandK with same seed must be deterministic")
	}
}

func TestSparseEncodeDecodeRoundTrip(t *testing.T) {
	v := make([]float64, 40)
	randx.Normal(randx.New(6), v, 0, 1)
	enc, buf := encodeSpec(t, "topk:0.17", 0, v) // k = 7
	view, err := ParsePayload(enc, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != view.WireBytes() {
		t.Fatalf("WireBytes %d != encoded %d", view.WireBytes(), len(buf))
	}
	got, err := DecodeSparse(buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := decodeDense(t, enc, buf), sparseDense(got)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sparse round trip mismatch")
		}
	}
}

func TestDecodeSparseRejectsCorrupt(t *testing.T) {
	if _, err := DecodeSparse([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer must error")
	}
	_, buf := encodeSpec(t, "topk:0.6", 0, []float64{1, 2, 3}) // k = 2
	buf[8] = 200                                               // index out of range
	if _, err := DecodeSparse(buf); err == nil {
		t.Fatal("out-of-range index must error")
	}
	if _, err := DecodeSparse(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated buffer must error")
	}
}

func TestUniformQuantizationErrorBound(t *testing.T) {
	for _, bits := range []int{1, 2, 4, 8, 16} {
		v := make([]float64, 200)
		randx.Normal(randx.New(uint64(bits)), v, 0, 2)
		enc, buf := encodeSpec(t, "q"+strconv.Itoa(bits), 0, v)
		q, err := quantizedHeader(buf)
		if err != nil {
			t.Fatal(err)
		}
		dense := decodeDense(t, enc, buf)
		levels := float64((uint64(1) << bits) - 1)
		maxErr := (q.Max - q.Min) / levels / 2
		for i := range v {
			if err := math.Abs(dense[i] - v[i]); err > maxErr+1e-9 {
				t.Fatalf("bits=%d: error %v exceeds half-step %v", bits, err, maxErr)
			}
		}
	}
}

func TestUniformQuantizationPreservesExtremes(t *testing.T) {
	v := []float64{-3, 0, 7}
	dense := roundTrip(t, "q8", 0, v)
	if math.Abs(dense[0]-(-3)) > 1e-9 || math.Abs(dense[2]-7) > 1e-9 {
		t.Fatalf("extremes not preserved: %v", dense)
	}
}

func TestUniformConstantVector(t *testing.T) {
	v := []float64{5, 5, 5}
	dense := roundTrip(t, "q4", 0, v)
	for _, x := range dense {
		if x != 5 {
			t.Fatalf("constant vector round trip: %v", dense)
		}
	}
}

func TestQuantizedEncodeDecodeRoundTrip(t *testing.T) {
	v := make([]float64, 33) // odd length exercises bit packing
	randx.Normal(randx.New(8), v, 0, 1)
	enc, buf := encodeSpec(t, "q5", 0, v)
	view, err := ParsePayload(enc, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != view.WireBytes() {
		t.Fatalf("WireBytes %d != encoded %d", view.WireBytes(), len(buf))
	}
	a, b := view.DenseView(), decodeDense(t, enc, buf)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("quantized round trip mismatch")
		}
	}
}

func TestDecodeQuantizedRejectsCorrupt(t *testing.T) {
	if _, err := DecodePayload(EncQuantized, []byte{1}); err == nil {
		t.Fatal("short buffer must error")
	}
	_, buf := encodeSpec(t, "q8", 0, []float64{1, 2})
	buf[4] = 99 // invalid bit width
	if _, err := DecodePayload(EncQuantized, buf); err == nil {
		t.Fatal("invalid bits must error")
	}
}

func TestCompressionRatio(t *testing.T) {
	v := make([]float64, 10000)
	randx.Normal(randx.New(9), v, 0, 1)
	raw := 8 * len(v)

	if _, topk := encodeSpec(t, "topk:0.01", 0, v); len(topk) > raw/50 {
		t.Fatalf("top-1%% uses %d bytes of %d raw", len(topk), raw)
	}
	if _, q8 := encodeSpec(t, "q8", 0, v); len(q8) > raw/7 {
		t.Fatalf("8-bit quantization uses %d bytes of %d raw", len(q8), raw)
	}
}

// TestErrorFeedbackConvergesWhereTopKStalls is the canonical EF
// property: plain top-1 on gradient descent leaves coordinates
// permanently unserved, while error feedback eventually transmits
// every accumulated residual.
func TestErrorFeedbackConvergesWhereTopKStalls(t *testing.T) {
	// Minimize f(w) = ½‖w − c‖² by compressed gradient steps; topk:0.25
	// keeps k = 1 of the 4 coordinates.
	c := []float64{10, 1, 0.1, 0.01}
	step := func(spec string, iters int) []float64 {
		codec := newCodec(t, spec, 0)
		w := make([]float64, len(c))
		for i := 0; i < iters; i++ {
			grad := make([]float64, len(c))
			for j := range grad {
				grad[j] = w[j] - c[j]
			}
			update := decodeWith(t, codec, grad)
			tensor.VecAxpy(w, -0.5, update)
		}
		return w
	}
	plain := step("topk:0.25", 200)
	ef := step("ef+topk:0.25", 200)

	plainErr := tensor.VecDist2(plain, c)
	efErr := tensor.VecDist2(ef, c)
	if efErr > 0.05 {
		t.Fatalf("error feedback did not converge: err %v", efErr)
	}
	if plainErr < 10*efErr {
		t.Fatalf("plain TopK(1) should stall: plain %v vs ef %v", plainErr, efErr)
	}
}

func TestErrorFeedbackResidualAccounting(t *testing.T) {
	ef := newCodec(t, "ef+topk:0.5", 0) // k = 1 of 2
	v := []float64{3, 2}
	dense := decodeWith(t, ef, v)
	// Kept coordinate 0 (largest); residual = v - dense = [0, 2].
	res := ef.(*efCodec).Residual()
	if dense[0] != 3 || res[0] != 0 || res[1] != 2 {
		t.Fatalf("dense %v residual %v", dense, res)
	}
	// Next round, coordinate 1 has accumulated 2+2=4 > 3: it wins.
	dense2 := decodeWith(t, ef, v)
	if dense2[1] != 4 {
		t.Fatalf("second round dense = %v, want residual flush", dense2)
	}
}

func TestErrorFeedbackPanicsOnDimChange(t *testing.T) {
	ef := newCodec(t, "ef+topk:0.5", 0)
	ef.AppendEncode(nil, []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ef.AppendEncode(nil, []float64{1, 2, 3})
}
