package nn

import (
	"fmt"
	"math"

	"fedms/internal/randx"
	"fedms/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b for x of shape [N, in].
type Dense struct {
	name string
	in   int
	out  int
	w    *Param // [in, out]
	b    *Param // [out]

	lastX *tensor.Dense

	workers int
	outB    outCache
	dxB     outCache
}

// NewDense constructs a fully connected layer with He-normal initialized
// weights and zero bias. A nil r leaves the weights zero, for a caller
// that installs its own (see MLPConfig.NoInit).
func NewDense(name string, in, out int, r *randx.RNG) *Dense {
	w := tensor.New(in, out)
	heNormal(w, r, in)
	return &Dense{
		name: name,
		in:   in,
		out:  out,
		w:    newParam(name+".w", w, true),
		b:    newParam(name+".b", tensor.New(out), true),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// setWorkers implements workersSetter.
func (d *Dense) setWorkers(w int) { d.workers = w }

// Forward implements Layer. x must have shape [N, in] (higher-rank inputs
// are flattened per sample).
func (d *Dense) Forward(x *tensor.Dense, train bool) *tensor.Dense {
	x = as2D(x, d.in, d.name)
	n := x.Dim(0)
	out := d.outB.get(n, d.out)
	tensor.GemmWorkers(out.Data(), x.Data(), d.w.Value.Data(), n, d.out, d.in, d.workers)
	bias := d.b.Value.Data()
	for i := 0; i < n; i++ {
		row := out.Row(i)
		tensor.VecAdd(row, bias)
	}
	if train {
		d.lastX = x
	}
	return out
}

// Backward implements Layer. The transposed-operand GEMM variants read W
// and the cached input in place, so no transpose copy (or any other
// buffer) is materialized.
func (d *Dense) Backward(grad *tensor.Dense) *tensor.Dense {
	if d.lastX == nil {
		panic("nn: Dense.Backward before Forward(train)")
	}
	x := d.lastX
	n := x.Dim(0)

	// dW += xᵀ·g, with x read column-wise [n×in].
	tensor.GemmTAAcc(d.w.Grad.Data(), x.Data(), grad.Data(), d.in, d.out, n, d.workers)
	// db += column sums of g
	bg := d.b.Grad.Data()
	for i := 0; i < n; i++ {
		tensor.VecAdd(bg, grad.Row(i))
	}
	// dx = g·Wᵀ, with W read row-wise as logical columns [in×out].
	dx := d.dxB.get(n, d.in)
	tensor.GemmTB(dx.Data(), grad.Data(), d.w.Value.Data(), n, d.in, d.out, d.workers)
	d.lastX = nil
	return dx
}

// as2D reshapes x to [N, features], verifying the per-sample volume.
func as2D(x *tensor.Dense, features int, layer string) *tensor.Dense {
	if x.Rank() == 2 && x.Dim(1) == features {
		return x
	}
	n := x.Dim(0)
	if x.Len()%n != 0 || x.Len()/n != features {
		panic(fmt.Sprintf("nn: %s expects %d features per sample, got shape %v", layer, features, x.Shape()))
	}
	return x.Reshape(n, features)
}

// heNormal fills w with He-normal samples for the given fan-in, or
// leaves it zero when r is nil.
func heNormal(w *tensor.Dense, r *randx.RNG, fanIn int) {
	if r != nil {
		w.FillNormal(r, 0, math.Sqrt(2.0/float64(fanIn)))
	}
}

// initRNG returns the weight-initialization stream of a model, or nil
// when noInit asks for zero weights.
func initRNG(seed uint64, label string, noInit bool) *randx.RNG {
	if noInit {
		return nil
	}
	return randx.Split(seed, label)
}
