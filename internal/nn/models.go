package nn

import (
	"fmt"

	"fedms/internal/randx"
)

// NewInvertedResidual builds the MobileNet V2 inverted residual block
// (Sandler et al., CVPR 2018): a 1×1 expansion convolution, a 3×3
// depthwise convolution, and a 1×1 linear projection, with a skip
// connection when the block preserves shape.
func NewInvertedResidual(name string, inC, outC, stride, expand int, r *randx.RNG) Layer {
	hidden := inC * expand
	seq := NewSequential(name)
	if expand != 1 {
		seq.Add(
			NewConv2D(name+".expand", inC, hidden, 1, ConvOpts{NoBias: true}, r),
			NewBatchNorm2D(name+".expand_bn", hidden),
			NewReLU6(name+".expand_relu"),
		)
	}
	seq.Add(
		NewDepthwiseConv2D(name+".dw", hidden, 3, stride, 1, r),
		NewBatchNorm2D(name+".dw_bn", hidden),
		NewReLU6(name+".dw_relu"),
		NewConv2D(name+".project", hidden, outC, 1, ConvOpts{NoBias: true}, r),
		NewBatchNorm2D(name+".project_bn", outC),
	)
	if stride == 1 && inC == outC {
		return NewResidual(name+".res", seq)
	}
	return seq
}

// MobileNetV2Config parameterizes the MobileNet V2 constructor.
type MobileNetV2Config struct {
	NumClasses int
	InChannels int     // input image channels (3 for RGB)
	Resolution int     // input spatial size (square); <= 32 switches to the CIFAR stride adaptation
	WidthMult  float64 // channel width multiplier (1.0 = paper-size network)
	Seed       uint64
	NoInit     bool // zero weights, no random draw (see MLPConfig.NoInit)
}

// blockSpec is one row of the MobileNet V2 architecture table:
// expansion t, output channels c, repeats n, first stride s.
type blockSpec struct{ t, c, n, s int }

// mobileNetV2Specs is Table 2 of the MobileNet V2 paper.
var mobileNetV2Specs = []blockSpec{
	{1, 16, 1, 1},
	{6, 24, 2, 2},
	{6, 32, 3, 2},
	{6, 64, 4, 2},
	{6, 96, 3, 1},
	{6, 160, 3, 2},
	{6, 320, 1, 1},
}

// NewMobileNetV2 constructs the MobileNet V2 architecture used as the
// training model in the paper's evaluation. For small inputs
// (Resolution <= 32, the CIFAR-10 case) the stem stride and the first
// downsampling block stride are reduced to 1, the standard CIFAR
// adaptation, so the network does not collapse spatial resolution
// prematurely.
func NewMobileNetV2(cfg MobileNetV2Config) *Network {
	if cfg.NumClasses <= 0 || cfg.InChannels <= 0 || cfg.Resolution <= 0 {
		panic("nn: MobileNetV2Config requires positive classes, channels, resolution")
	}
	if cfg.WidthMult <= 0 {
		cfg.WidthMult = 1.0
	}
	r := initRNG(cfg.Seed, "mobilenetv2", cfg.NoInit)
	cifar := cfg.Resolution <= 32

	width := func(c int) int {
		w := int(float64(c)*cfg.WidthMult + 0.5)
		if w < 4 {
			w = 4
		}
		return w
	}

	stemC := width(32)
	stemStride := 2
	if cifar {
		stemStride = 1
	}
	seq := NewSequential("mobilenetv2")
	seq.Add(
		NewConv2D("stem", cfg.InChannels, stemC, 3, ConvOpts{Stride: stemStride, Pad: 1, NoBias: true}, r),
		NewBatchNorm2D("stem_bn", stemC),
		NewReLU6("stem_relu"),
	)
	inC := stemC
	for si, spec := range mobileNetV2Specs {
		outC := width(spec.c)
		for i := 0; i < spec.n; i++ {
			stride := 1
			if i == 0 {
				stride = spec.s
				if cifar && si == 1 {
					stride = 1 // CIFAR adaptation: keep 32x32 through stage 2
				}
			}
			name := fmt.Sprintf("block%d_%d", si, i)
			seq.Add(NewInvertedResidual(name, inC, outC, stride, spec.t, r))
			inC = outC
		}
	}
	headC := width(1280)
	seq.Add(
		NewConv2D("head", inC, headC, 1, ConvOpts{NoBias: true}, r),
		NewBatchNorm2D("head_bn", headC),
		NewReLU6("head_relu"),
		NewGlobalAvgPool2D("gap"),
		NewDense("classifier", headC, cfg.NumClasses, r),
	)
	return NewNetwork(seq, SoftmaxCrossEntropy{})
}

// SmallCNNConfig parameterizes the compact convolutional classifier used
// by integration tests and mid-scale experiments.
type SmallCNNConfig struct {
	NumClasses int
	InChannels int
	Resolution int
	Seed       uint64
	NoInit     bool // zero weights, no random draw (see MLPConfig.NoInit)
}

// NewSmallCNN builds a compact conv-BN-ReLU ×2 classifier. It trains the
// same way MobileNet V2 does but is small enough for federated sweeps on
// a single CPU core.
func NewSmallCNN(cfg SmallCNNConfig) *Network {
	r := initRNG(cfg.Seed, "smallcnn", cfg.NoInit)
	res := cfg.Resolution
	if res%4 != 0 {
		panic("nn: SmallCNN requires resolution divisible by 4")
	}
	flat := (res / 4) * (res / 4) * 32
	seq := NewSequential("smallcnn",
		NewConv2D("conv1", cfg.InChannels, 16, 3, ConvOpts{Pad: 1, NoBias: true}, r),
		NewBatchNorm2D("bn1", 16),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 2, 2),
		NewConv2D("conv2", 16, 32, 3, ConvOpts{Pad: 1, NoBias: true}, r),
		NewBatchNorm2D("bn2", 32),
		NewReLU("relu2"),
		NewMaxPool2D("pool2", 2, 2),
		NewFlatten("flatten"),
		NewDense("fc", flat, cfg.NumClasses, r),
	)
	return NewNetwork(seq, SoftmaxCrossEntropy{})
}

// MLPConfig parameterizes a multilayer perceptron.
type MLPConfig struct {
	In         int
	Hidden     []int
	NumClasses int
	Seed       uint64
	// NoInit skips the random weight draw and leaves every weight zero,
	// for a caller that installs its own parameters right after
	// construction (a federation's shared initial model).
	NoInit bool
}

// NewMLP builds a ReLU multilayer perceptron classifier. This is the
// model used by the long federated sweeps (Figs. 2, 3, 5), where the
// attack/defence dynamics — not the architecture — are under study.
func NewMLP(cfg MLPConfig) *Network {
	r := initRNG(cfg.Seed, "mlp", cfg.NoInit)
	seq := NewSequential("mlp")
	in := cfg.In
	for i, h := range cfg.Hidden {
		seq.Add(
			NewDense(fmt.Sprintf("fc%d", i), in, h, r),
			NewReLU(fmt.Sprintf("relu%d", i)),
		)
		in = h
	}
	seq.Add(NewDense("out", in, cfg.NumClasses, r))
	return NewNetwork(seq, SoftmaxCrossEntropy{})
}

// NewLogistic builds a multinomial logistic regression model — the
// strongly convex case matching the convergence theory's assumptions.
func NewLogistic(in, numClasses int, seed uint64) *Network {
	r := randx.Split(seed, "logistic")
	seq := NewSequential("logistic", NewDense("out", in, numClasses, r))
	return NewNetwork(seq, SoftmaxCrossEntropy{})
}
