// Package compress implements model-vector compression schemes that
// complement Fed-MS's sparse uploading on the communication-efficiency
// axis: top-k and random-k sparsification, uniform quantization, and an
// error-feedback accumulator that makes biased compressors safe to use
// across rounds. Every scheme is a Codec built from a Spec (codec.go);
// this file holds the sparse and quantized representations they encode
// to.
//
// The paper's sparse upload reduces *how many* servers receive a model
// (K uploads instead of K·P); these schemes reduce *how large* each
// upload is. They compose: a client can compress the one model it
// uploads.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ---------------------------------------------------------------------------
// Sparse representations (top-k, random-k)

// Sparse is an index/value sparse vector.
type Sparse struct {
	Dim     int
	Indices []uint32
	Values  []float64
}

// AppendEncode serializes the sparse vector onto dst: dim, count, the
// indices, then the values, all little-endian.
func (s *Sparse) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Indices)))
	for _, idx := range s.Indices {
		dst = binary.LittleEndian.AppendUint32(dst, idx)
	}
	for _, v := range s.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeSparse parses a Sparse encoding. Indices must be strictly
// increasing and in range: a Byzantine or corrupted payload with
// duplicate or out-of-order indices must not silently double-write
// coordinates, so it is rejected here at the wire boundary.
func DecodeSparse(buf []byte) (*Sparse, error) {
	dim, n, err := sparseHeader(buf)
	if err != nil {
		return nil, err
	}
	s := &Sparse{Dim: dim, Indices: make([]uint32, n), Values: make([]float64, n)}
	off := 8
	prev := -1
	for i := range s.Indices {
		idx := binary.LittleEndian.Uint32(buf[off:])
		if int(idx) <= prev {
			return nil, fmt.Errorf("%w: sparse index %d after %d (must be strictly increasing)", ErrPayload, idx, prev)
		}
		if int(idx) >= dim {
			return nil, fmt.Errorf("%w: sparse index %d out of range %d", ErrPayload, idx, dim)
		}
		prev = int(idx)
		s.Indices[i] = idx
		off += 4
	}
	for i := range s.Values {
		s.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return s, nil
}

// TopK sizes the top-k and random-k selections: the k entries with
// the largest magnitude (or k random ones) survive. Top-k is the
// classic biased sparsifier; the "ef+" codecs add error feedback for
// convergence across rounds.
type TopK struct {
	// Ratio keeps ceil(Ratio*dim) entries, at least one.
	Ratio float64
}

func (t TopK) k(dim int) int {
	k := int(math.Ceil(t.Ratio * float64(dim)))
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// ---------------------------------------------------------------------------
// Uniform quantization

// Quantized is a b-bit uniformly quantized vector.
type Quantized struct {
	Dim  int
	Bits int
	Min  float64
	Max  float64
	// Codes packs Dim codes of Bits bits each, little-endian within
	// bytes.
	Codes []byte
}

func (q *Quantized) denseInto(dst []float64) { q.denseRange(dst, 0, q.Dim) }

// code reads code i. The 4-, 8- and 16-bit widths are nibble, byte
// and little-endian uint16 loads; other widths go bit by bit.
func (q *Quantized) code(i int) uint64 {
	switch q.Bits {
	case 8:
		return uint64(q.Codes[i])
	case 16:
		return uint64(binary.LittleEndian.Uint16(q.Codes[2*i:]))
	case 4:
		return uint64(q.Codes[i/2]>>(4*(i&1))) & 0xF
	}
	return q.codeBits(i)
}

// codeBits is the generic bit-by-bit read of code i, for any width.
func (q *Quantized) codeBits(i int) uint64 {
	bitOff := i * q.Bits
	var code uint64
	for b := 0; b < q.Bits; b++ {
		byteIdx := (bitOff + b) / 8
		bitIdx := (bitOff + b) % 8
		if q.Codes[byteIdx]&(1<<bitIdx) != 0 {
			code |= 1 << b
		}
	}
	return code
}

// setCode stores the low Bits bits of code as code i into zeroed
// Codes, with the same fast widths as code.
func (q *Quantized) setCode(i int, code uint64) {
	switch q.Bits {
	case 8:
		q.Codes[i] = byte(code)
	case 16:
		binary.LittleEndian.PutUint16(q.Codes[2*i:], uint16(code))
	case 4:
		q.Codes[i/2] |= byte(code&0xF) << (4 * (i & 1))
	default:
		q.setCodeBits(i, code)
	}
}

// setCodeBits is the generic bit-by-bit store of code i, for any
// width.
func (q *Quantized) setCodeBits(i int, code uint64) {
	bitOff := i * q.Bits
	for b := 0; b < q.Bits; b++ {
		byteIdx := (bitOff + b) / 8
		bitIdx := (bitOff + b) % 8
		if code&(1<<b) != 0 {
			q.Codes[byteIdx] |= 1 << bitIdx
		}
	}
}

// AppendEncode serializes the quantized vector onto dst: dim, bits,
// min and max, then the packed codes, all little-endian.
func (q *Quantized) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Bits))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.Min))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.Max))
	return append(dst, q.Codes...)
}
