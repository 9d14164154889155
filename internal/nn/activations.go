package nn

import (
	"math"

	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

// Layers are persistent and own their buffers, so a layer is its own
// operand carrier for the worker pool: each dispatching pass is a named
// type over the layer (type reluForward ReLU) whose RunRange is the
// loop body, the pass's input stashed in a field of the layer. Handing
// parallel.ForKernel that pointer allocates nothing at any parallelism.

// elemCutoff is the element count below which an elementwise pass stays
// on the calling goroutine: the fan-out overhead outweighs the loop.
const elemCutoff = 1 << 14

// runElems runs k over elements [0, n), through the worker pool when
// there are enough of them to pay for it.
func runElems(n int, k parallel.Kernel) {
	if n < elemCutoff {
		k.RunRange(0, n)
		return
	}
	parallel.ForKernel(n, k)
}

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	mask    []bool
	out, dx *tensor.Tensor // persistent buffers
	in      []float32      // input (forward) or gradient (backward) of the pass in flight
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	r.out = ensureBuf(r.out, x.Shape...)
	r.in = x.Data
	runElems(len(x.Data), (*reluForward)(r))
	return r.out
}

type reluForward ReLU

func (r *reluForward) RunRange(lo, hi int) {
	out, mask, x := r.out.Data, r.mask, r.in
	for i := lo; i < hi; i++ {
		if v := x[i]; v > 0 {
			out[i] = v
			mask[i] = true
		} else {
			out[i] = 0
			mask[i] = false
		}
	}
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = ensureBuf(r.dx, grad.Shape...)
	r.in = grad.Data
	runElems(len(grad.Data), (*reluBackward)(r))
	return r.dx
}

type reluBackward ReLU

func (r *reluBackward) RunRange(lo, hi int) {
	out, mask, grad := r.dx.Data, r.mask, r.in
	for i := lo; i < hi; i++ {
		if mask[i] {
			out[i] = grad[i]
		} else {
			out[i] = 0
		}
	}
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh applies the hyperbolic tangent elementwise. LeNet-5 historically
// used tanh-family activations.
type Tanh struct {
	y  *tensor.Tensor // persistent output, cached for backward
	dx *tensor.Tensor
	in []float32 // input (forward) or gradient (backward) of the pass in flight
}

// NewTanh returns a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	t.y = ensureBuf(t.y, x.Shape...)
	t.in = x.Data
	runElems(len(x.Data), (*tanhForward)(t))
	return t.y
}

type tanhForward Tanh

func (t *tanhForward) RunRange(lo, hi int) {
	out, x := t.y.Data, t.in
	for i := lo; i < hi; i++ {
		out[i] = float32(math.Tanh(float64(x[i])))
	}
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t.dx = ensureBuf(t.dx, grad.Shape...)
	t.in = grad.Data
	runElems(len(grad.Data), (*tanhBackward)(t))
	return t.dx
}

type tanhBackward Tanh

func (t *tanhBackward) RunRange(lo, hi int) {
	out, grad, y := t.dx.Data, t.in, t.y.Data
	for i := lo; i < hi; i++ {
		out[i] = grad[i] * (1 - y[i]*y[i])
	}
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// MaxPool2D is a max-pooling layer with a square window.
type MaxPool2D struct {
	P tensor.ConvParams

	inShape []int
	arg     []int
	out, dx *tensor.Tensor // persistent buffers
}

// NewMaxPool2D creates a kxk max pool with the given stride.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	return &MaxPool2D{P: tensor.ConvParams{KH: k, KW: k, SH: stride, SW: stride}}
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkDims("MaxPool2D", x, 4)
	m.inShape = append(m.inShape[:0], x.Shape...)
	n, c := x.Shape[0], x.Shape[1]
	oh, ow := m.P.OutSize(x.Shape[2], x.Shape[3])
	m.out = ensureBuf(m.out, n, c, oh, ow)
	if cap(m.arg) < m.out.Size() {
		m.arg = make([]int, m.out.Size())
	}
	m.arg = m.arg[:m.out.Size()]
	tensor.MaxPoolInto(m.out, m.arg, x, m.P)
	return m.out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	m.dx = ensureBuf(m.dx, m.inShape...)
	tensor.MaxPoolBackwardInto(m.dx, grad, m.arg)
	return m.dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// AvgPool2D is an average-pooling layer with a square window.
type AvgPool2D struct {
	P tensor.ConvParams

	inShape []int
	out, dx *tensor.Tensor // persistent buffers
}

// NewAvgPool2D creates a kxk average pool with the given stride.
func NewAvgPool2D(k, stride int) *AvgPool2D {
	return &AvgPool2D{P: tensor.ConvParams{KH: k, KW: k, SH: stride, SW: stride}}
}

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkDims("AvgPool2D", x, 4)
	a.inShape = append(a.inShape[:0], x.Shape...)
	n, c := x.Shape[0], x.Shape[1]
	oh, ow := a.P.OutSize(x.Shape[2], x.Shape[3])
	a.out = ensureBuf(a.out, n, c, oh, ow)
	tensor.AvgPoolInto(a.out, x, a.P)
	return a.out
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	a.dx = ensureBuf(a.dx, a.inShape...)
	tensor.AvgPoolBackwardInto(a.dx, grad, a.P)
	return a.dx
}

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

// GlobalAvgPool reduces [N,C,H,W] to [N,C] by averaging each plane,
// used before the classifier in ResNet and MobileNet.
type GlobalAvgPool struct {
	inShape []int
	out, dx *tensor.Tensor // persistent buffers
	in      []float32      // input (forward) or gradient (backward) of the pass in flight
}

// NewGlobalAvgPool returns a GlobalAvgPool layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkDims("GlobalAvgPool", x, 4)
	g.inShape = append(g.inShape[:0], x.Shape...)
	g.out = ensureBuf(g.out, x.Shape[0], x.Shape[1])
	g.in = x.Data
	parallel.ForKernel(x.Shape[0], (*gapForward)(g))
	return g.out
}

type gapForward GlobalAvgPool

// RunRange averages the planes of images [lo, hi).
func (g *gapForward) RunRange(lo, hi int) {
	c, hw := g.inShape[1], g.inShape[2]*g.inShape[3]
	inv := 1 / float32(hw)
	for i := lo * c; i < hi*c; i++ {
		var s float32
		for _, v := range g.in[i*hw : (i+1)*hw] {
			s += v
		}
		g.out.Data[i] = s * inv
	}
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g.dx = ensureBuf(g.dx, g.inShape...)
	g.in = grad.Data
	parallel.ForKernel(g.inShape[0], (*gapBackward)(g))
	return g.dx
}

type gapBackward GlobalAvgPool

// RunRange spreads each plane's gradient over images [lo, hi).
func (g *gapBackward) RunRange(lo, hi int) {
	c, hw := g.inShape[1], g.inShape[2]*g.inShape[3]
	inv := 1 / float32(hw)
	for i := lo * c; i < hi*c; i++ {
		gv := g.in[i] * inv
		plane := g.dx.Data[i*hw : (i+1)*hw]
		for j := range plane {
			plane[j] = gv
		}
	}
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }
