package compress

import "testing"

// FuzzDecodeSparse asserts the sparse decoder never panics and its
// accepted outputs reconstruct without index panics.
func FuzzDecodeSparse(f *testing.F) {
	_, seed := encodeSpec(f, "topk:0.6", 0, []float64{1, -2, 3})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSparse(data)
		if err != nil {
			return
		}
		dense := sparseDense(s)
		if len(dense) != s.Dim {
			t.Fatal("dense length mismatch")
		}
	})
}

// FuzzDecodeQuantized asserts the quantized decoder never panics.
func FuzzDecodeQuantized(f *testing.F) {
	_, seed := encodeSpec(f, "q4", 0, []float64{0.5, -0.5, 2})
	f.Add(seed)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dense, err := DecodePayload(EncQuantized, data)
		if err != nil {
			return
		}
		if dim, _ := PayloadDim(EncQuantized, data); len(dense) != dim {
			t.Fatal("dense length mismatch")
		}
	})
}
