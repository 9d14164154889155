package nn

import (
	"math"

	"socflow/internal/tensor"
)

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	out, dx *tensor.Tensor // persistent buffers; out is cached for backward
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	r.out = ensureBuf(r.out, x.Shape...)
	out := r.out.Data
	for i, v := range x.Data {
		out[i] = relu(v)
	}
	return r.out
}

// relu returns v when v > 0 and +0 otherwise (NaN, −0 and every
// negative included).
func relu(v float32) float32 { return passIfPositive(v, v) }

// passIfPositive returns g when key > 0 and +0 otherwise, selected on
// key's bits: key > 0 holds exactly when bits−1 < 0x7f800000, the
// positive finite floats and +Inf. Both operands' bits are taken before
// the test, so the compiler emits a conditional move (CMOVLCC) where
// the float compare compiled to a jump on the data, which about half of
// all ReLU inputs took each way (DESIGN.md §14).
func passIfPositive(key, g float32) float32 {
	k, r := math.Float32bits(key), math.Float32bits(g)
	if k-1 >= 0x7f800000 {
		r = 0
	}
	return math.Float32frombits(r)
}

// Backward implements Layer. The gradient passes where the output is
// positive: out is x or 0, so out > 0 exactly when x > 0, NaN and −0
// included.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = ensureBuf(r.dx, grad.Shape...)
	dx, out := r.dx.Data, r.out.Data
	for i, g := range grad.Data {
		dx[i] = passIfPositive(out[i], g)
	}
	return r.dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh applies the hyperbolic tangent elementwise. LeNet-5 historically
// used tanh-family activations.
type Tanh struct {
	y  *tensor.Tensor // persistent output, cached for backward
	dx *tensor.Tensor
}

// NewTanh returns a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	t.y = ensureBuf(t.y, x.Shape...)
	tanhInto(t.y.Data, x.Data)
	return t.y
}

// tanhInto sets dst[i] = tanh32(x[i]) and tanhGradInto dst[i] =
// g[i]·(1 − y[i]²), rounded as written: the loops below, or on AVX2
// hosts the lane kernels of tanh_amd64.s, which give the same bits.
var (
	tanhInto     = tanhIntoGo
	tanhGradInto = tanhGradIntoGo
)

func tanhIntoGo(dst, x []float32) {
	for i, v := range x {
		dst[i] = tanh32(v)
	}
}

func tanhGradIntoGo(dst, g, y []float32) {
	for i, gi := range g {
		dst[i] = gi * (1 - y[i]*y[i])
	}
}

// tanh32 returns float32(math.Tanh(float64(x))) for every float32 x, in
// about a third of the time (DESIGN.md §14). For |x| ≥ 0.625 math.Tanh
// evaluates 1 − 2/(exp(2|x|)+1) in float64; tanh32 evaluates the same
// formula with a cheaper exp whose result lies within a few float64 ulps
// of math.Exp's. Rounding to float32 drops 29 mantissa bits, so the two
// float64 values round to the same float32 unless they straddle a
// rounding midpoint; wherever the fast value lies within 2^12 float64
// ulps of one, tanh32 asks math.Tanh instead. TestTanhMatchesMathTanhExhaustive
// checks every float32 input the fast path can see.
func tanh32(x float32) float32 {
	a := math.Abs(float64(x))
	if !(a >= 0.625) { // math.Tanh's own rational branch, and NaN
		return float32(math.Tanh(float64(x)))
	}
	if a >= 9.011 {
		// Past 13·ln2 ≈ 9.01091, 2/(exp(2a)+1) is below 2^-25, half a
		// float32 ulp under 1, so math.Tanh rounds to ±1.
		return float32(math.Copysign(1, float64(x)))
	}
	// exp(2a) = 2^(k/32) · exp(r) with k = round(2a·32/ln2) < 2^10 and
	// |r| ≤ ln2/64. Adding 1.5·2^52 rounds 2a·32/ln2 to k and leaves k
	// in the low mantissa bits of kf; ln2by32Hi has 21 trailing zero bits, so
	// kf·ln2by32Hi and the subtraction from 2a are exact. exp(r) is its
	// degree-5 Taylor polynomial (error ≤ r^6/720 < 2^-48), evaluated by
	// Estrin's scheme for a shorter dependency chain.
	const round = 0x1.8p52
	kf := a*(64/math.Ln2) + round
	k := math.Float64bits(kf) & (1<<10 - 1)
	kf -= round
	r := (2*a - kf*ln2by32Hi) - kf*ln2by32Lo
	r2 := r * r
	p := (1 + r) + r2*((1.0/2+r*(1.0/6))+r2*(1.0/24+r*(1.0/120)))
	s := math.Float64frombits(math.Float64bits(exp2by32[k&31])+k>>5<<52) * p
	y := 1 - 2/(s+1)
	// y ∈ [0.55, 1): the float32 rounding midpoint sits at 2^28 in the
	// low 29 bits of its mantissa.
	if math.Float64bits(y)&(1<<29-1)-(1<<28-1<<12) < 1<<13 {
		return float32(math.Tanh(float64(x)))
	}
	return float32(math.Copysign(y, float64(x)))
}

// ln2/32 split so that its high half times any integer below 2^21 is
// exact (math.Exp's own Ln2Hi/Ln2Lo, scaled).
const (
	ln2by32Hi = 6.93147180369123816490e-01 / 32
	ln2by32Lo = 1.90821492927058770002e-10 / 32
)

// exp2by32[j] = 2^(j/32).
var exp2by32 = func() (t [32]float64) {
	for j := range t {
		t[j] = math.Exp2(float64(j) / 32)
	}
	return t
}()

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t.dx = ensureBuf(t.dx, grad.Shape...)
	tanhGradInto(t.dx.Data, grad.Data, t.y.Data)
	return t.dx
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// MaxPool2D is a max-pooling layer with a square window.
type MaxPool2D struct {
	P tensor.ConvParams

	inShape []int
	arg     []int          // argmax positions of the last train forward
	eval    bool           // the last forward was an eval one and kept no arg
	out, dx *tensor.Tensor // persistent buffers
}

// NewMaxPool2D creates a kxk max pool with the given stride.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	return &MaxPool2D{P: tensor.ConvParams{KH: k, KW: k, SH: stride, SW: stride}}
}

// Forward implements Layer. Only a train forward records the argmax
// positions Backward scatters to.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkDims("MaxPool2D", x, 4)
	m.inShape = append(m.inShape[:0], x.Shape...)
	n, c := x.Shape[0], x.Shape[1]
	oh, ow := m.P.OutSize(x.Shape[2], x.Shape[3])
	m.out = ensureBuf(m.out, n, c, oh, ow)
	m.eval = !train
	var arg []int
	if train {
		if cap(m.arg) < m.out.Size() {
			m.arg = make([]int, m.out.Size())
		}
		m.arg = m.arg[:m.out.Size()]
		arg = m.arg
	}
	tensor.MaxPoolInto(m.out, arg, x, m.P)
	return m.out
}

// Backward implements Layer. It panics after an eval forward, which
// records no argmax.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	mustFollowTrain("MaxPool2D", m.eval)
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
}

// NewGlobalAvgPool returns a GlobalAvgPool layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	checkDims("GlobalAvgPool", x, 4)
	g.inShape = append(g.inShape[:0], x.Shape...)
	g.out = ensureBuf(g.out, x.Shape[0], x.Shape[1])
	hw := x.Shape[2] * x.Shape[3]
	inv := 1 / float32(hw)
	for i := range g.out.Data {
		var s float32
		for _, v := range x.Data[i*hw : (i+1)*hw] {
			s += v
		}
		g.out.Data[i] = s * inv
	}
	return g.out
}

// Backward implements Layer: each plane's gradient spreads evenly over
// the plane.
func (g *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g.dx = ensureBuf(g.dx, g.inShape...)
	hw := g.inShape[2] * g.inShape[3]
	inv := 1 / float32(hw)
	for i, gi := range grad.Data[:g.inShape[0]*g.inShape[1]] {
		gv := gi * inv
		plane := g.dx.Data[i*hw : (i+1)*hw]
		for j := range plane {
			plane[j] = gv
		}
	}
	return g.dx
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }
