package compress

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"fedms/internal/randx"
)

// genericQuantEncode is the reference encode: quantCodec's per-
// coordinate code expression stored through the bit-by-bit path.
func genericQuantEncode(v []float64, bits int) []byte {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if len(v) == 0 {
		lo, hi = 0, 0
	}
	q := Quantized{Dim: len(v), Bits: bits, Min: lo, Max: hi, Codes: make([]byte, (len(v)*bits+7)/8)}
	levels := float64((uint64(1) << bits) - 1)
	span := hi - lo
	for i, x := range v {
		var code uint64
		if span > 0 {
			code = uint64(math.Round((x - lo) / span * levels))
		}
		q.setCodeBits(i, code)
	}
	return q.AppendEncode(nil)
}

// genericQuantDecode is the reference decode through the bit-by-bit
// read, with denseRange's per-coordinate expression.
func genericQuantDecode(t *testing.T, payload []byte) []float64 {
	t.Helper()
	q, err := quantizedHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, q.Dim)
	levels := (uint64(1) << q.Bits) - 1
	span := q.Max - q.Min
	for i := range out {
		if levels == 0 || span == 0 {
			out[i] = q.Min
			continue
		}
		out[i] = q.Min + span*float64(q.codeBits(i))/float64(levels)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestQuantizedFastPathsMatchGeneric pins the byte, nibble and uint16
// code paths to the generic bit-by-bit path: for every width 1..16 the
// codec's bytes, the full decode, a range gather and an accumulate are
// bit-identical to encoding and decoding one bit at a time.
func TestQuantizedFastPathsMatchGeneric(t *testing.T) {
	rng := randx.New(59)
	for bits := 1; bits <= 16; bits++ {
		for trial := 0; trial < 20; trial++ {
			d := 1 + rng.IntN(700)
			v := make([]float64, d)
			randx.Normal(rng, v, 0, 1+float64(trial))
			switch trial % 5 {
			case 3:
				v[rng.IntN(d)] = math.Inf(1 - 2*rng.IntN(2))
			case 4:
				for i := range v {
					v[i] = 3 // constant vector: zero span
				}
			}
			name := fmt.Sprintf("q%d/d=%d/trial=%d", bits, d, trial)
			enc, got := newCodec(t, fmt.Sprintf("q%d", bits), 0).AppendEncode(nil, v)
			want := genericQuantEncode(v, bits)
			if enc != EncQuantized || !bytes.Equal(got, want) {
				t.Fatalf("%s: encoded bytes differ from the generic path", name)
			}
			ref := genericQuantDecode(t, want)
			dec, err := DecodePayload(enc, got)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(dec, ref) {
				t.Fatalf("%s: decode differs from the generic path", name)
			}
			p, err := ParsePayload(enc, got)
			if err != nil {
				t.Fatal(err)
			}
			lo := rng.IntN(d)
			hi := lo + rng.IntN(d-lo+1)
			gather := make([]float64, hi-lo)
			p.GatherInto(gather, lo, hi)
			if !sameBits(gather, ref[lo:hi]) {
				t.Fatalf("%s: gather [%d,%d) differs from the generic path", name, lo, hi)
			}
			acc := make([]float64, d)
			p.AddTo(acc)
			if !sameBits(acc, ref) {
				t.Fatalf("%s: AddTo differs from the generic path", name)
			}
		}
	}
}

// TestQuantizedSetCodeKeepsLowBits pins the fast stores to the generic
// one for arbitrary 64-bit codes: both keep only the low Bits bits, so a
// code past the width never spills into a neighbour.
func TestQuantizedSetCodeKeepsLowBits(t *testing.T) {
	rng := randx.New(61)
	for bits := 1; bits <= 16; bits++ {
		const n = 64
		fast := Quantized{Dim: n, Bits: bits, Codes: make([]byte, (n*bits+7)/8)}
		generic := Quantized{Dim: n, Bits: bits, Codes: make([]byte, (n*bits+7)/8)}
		for i := 0; i < n; i++ {
			code := rng.Uint64()
			fast.setCode(i, code)
			generic.setCodeBits(i, code)
		}
		if !bytes.Equal(fast.Codes, generic.Codes) {
			t.Fatalf("q%d: setCode bytes differ from the bit-by-bit store", bits)
		}
		for i := 0; i < n; i++ {
			if fast.code(i) != generic.codeBits(i) {
				t.Fatalf("q%d: code(%d) = %d, bit-by-bit read %d", bits, i, fast.code(i), generic.codeBits(i))
			}
		}
	}
}

func benchQuantVec() []float64 { return codecTestVec(11, 100042) }

func BenchmarkQuantizedEncode(b *testing.B) {
	v := benchQuantVec()
	c := newCodec(b, "q8", 0)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, buf = c.AppendEncode(buf[:0], v)
	}
}

func BenchmarkQuantizedDecode(b *testing.B) {
	v := benchQuantVec()
	enc, payload := newCodec(b, "q8", 0).AppendEncode(nil, v)
	dst := make([]float64, len(v))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodePayloadInto(dst, enc, payload); err != nil {
			b.Fatal(err)
		}
	}
}
