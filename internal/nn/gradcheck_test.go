package nn

import (
	"math"
	"testing"

	"socflow/internal/tensor"
)

// scalarLoss reduces a forward pass to a scalar by dotting the output
// with a fixed random tensor — a generic differentiable objective for
// gradient checking.
func scalarLoss(l Layer, x, probe *tensor.Tensor) float64 {
	y := l.Forward(x, true)
	return float64(tensor.Dot(y, probe))
}

// checkLayerGradients numerically verifies Backward for both the input
// gradient and every parameter gradient of layer l. It samples at most
// maxChecks coordinates per tensor to keep the test fast.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	r := tensor.NewRNG(777)

	// One forward to learn the output shape, then build the probe.
	y := l.Forward(x.Clone(), true)
	probe := tensor.RandNormal(r, 0, 1, y.Shape...)

	// Analytic gradients.
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	_ = l.Forward(x.Clone(), true)
	dx := l.Backward(probe.Clone())

	const eps = 1e-3
	const maxChecks = 6

	// Input gradient.
	for c := 0; c < maxChecks && c < len(x.Data); c++ {
		i := r.Intn(len(x.Data))
		xp := x.Clone()
		xp.Data[i] += eps
		xm := x.Clone()
		xm.Data[i] -= eps
		num := (scalarLoss(l, xp, probe) - scalarLoss(l, xm, probe)) / (2 * eps)
		if !gradClose(num, float64(dx.Data[i]), tol) {
			t.Fatalf("input grad[%d]: numeric %v vs analytic %v", i, num, dx.Data[i])
		}
	}

	// Parameter gradients. Note scalarLoss mutates cached activations,
	// so we recompute the analytic gradient freshly per parameter set.
	for _, p := range l.Params() {
		for _, pp := range l.Params() {
			pp.Grad.Zero()
		}
		_ = l.Forward(x.Clone(), true)
		l.Backward(probe.Clone())
		analytic := p.Grad.Clone()
		for c := 0; c < maxChecks && c < len(p.W.Data); c++ {
			i := r.Intn(len(p.W.Data))
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			plus := scalarLoss(l, x.Clone(), probe)
			p.W.Data[i] = orig - eps
			minus := scalarLoss(l, x.Clone(), probe)
			p.W.Data[i] = orig
			num := (plus - minus) / (2 * eps)
			if !gradClose(num, float64(analytic.Data[i]), tol) {
				t.Fatalf("%s grad[%d]: numeric %v vs analytic %v", p.Name, i, num, analytic.Data[i])
			}
		}
	}
}

func gradClose(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff/scale <= tol
}

func TestDenseGradients(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewDense(r, 5, 4)
	x := tensor.RandNormal(r, 0, 1, 3, 5)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestConv2DGradients(t *testing.T) {
	r := tensor.NewRNG(2)
	l := NewConv2D(r, 2, 3, 3, 1, 1)
	x := tensor.RandNormal(r, 0, 1, 2, 2, 5, 5)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestConv2DStridedGradients(t *testing.T) {
	r := tensor.NewRNG(3)
	l := NewConv2D(r, 1, 2, 3, 2, 1)
	x := tensor.RandNormal(r, 0, 1, 1, 1, 6, 6)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestDepthwiseConvGradients(t *testing.T) {
	r := tensor.NewRNG(4)
	l := NewDepthwiseConv2D(r, 3, 3, 1, 1)
	x := tensor.RandNormal(r, 0, 1, 2, 3, 4, 4)
	checkLayerGradients(t, l, x, 2e-2)
}

func TestBatchNormGradients(t *testing.T) {
	r := tensor.NewRNG(5)
	l := NewBatchNorm2D(2)
	x := tensor.RandNormal(r, 0.5, 2, 3, 2, 3, 3)
	checkLayerGradients(t, l, x, 5e-2)
}

func TestTanhGradients(t *testing.T) {
	r := tensor.NewRNG(6)
	l := NewTanh()
	x := tensor.RandNormal(r, 0, 1, 2, 4)
	checkLayerGradients(t, l, x, 1e-2)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	r := tensor.NewRNG(7)
	l := NewGlobalAvgPool()
	x := tensor.RandNormal(r, 0, 1, 2, 3, 4, 4)
	checkLayerGradients(t, l, x, 1e-2)
}

func TestAvgPool2DGradients(t *testing.T) {
	r := tensor.NewRNG(8)
	l := &AvgPool2D{P: tensor.ConvParams{KH: 2, KW: 2, SH: 2, SW: 2}}
	x := tensor.RandNormal(r, 0, 1, 1, 2, 4, 4)
	checkLayerGradients(t, l, x, 1e-2)
}

func TestResidualGradients(t *testing.T) {
	r := tensor.NewRNG(9)
	l := basicBlock(r, 2, 3, 2)
	x := tensor.RandNormal(r, 0, 1, 2, 2, 4, 4)
	checkLayerGradients(t, l, x, 5e-2)
}

func TestResidualIdentityGradients(t *testing.T) {
	r := tensor.NewRNG(10)
	l := basicBlock(r, 3, 3, 1)
	x := tensor.RandNormal(r, 0, 1, 1, 3, 4, 4)
	checkLayerGradients(t, l, x, 5e-2)
}

// End-to-end gradient check: the full micro model with the real
// cross-entropy loss, checked against numerical differentiation of the
// loss itself.
func TestFullModelCrossEntropyGradients(t *testing.T) {
	r := tensor.NewRNG(11)
	model := buildVGGMicro(r, 1, 8, 3)
	x := tensor.RandNormal(r, 0, 1, 2, 1, 8, 8)
	labels := []int{0, 2}

	lossOf := func() float64 {
		logits := model.Forward(x, true)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return float64(l)
	}

	model.ZeroGrad()
	logits := model.Forward(x, true)
	_, g := SoftmaxCrossEntropy(logits, labels)
	model.Backward(g)

	params := model.Params()
	const eps = 1e-2
	checks := 0
	for _, p := range params {
		if len(p.W.Data) == 0 {
			continue
		}
		i := r.Intn(len(p.W.Data))
		orig := p.W.Data[i]
		p.W.Data[i] = orig + eps
		plus := lossOf()
		p.W.Data[i] = orig - eps
		minus := lossOf()
		p.W.Data[i] = orig
		num := (plus - minus) / (2 * eps)
		analytic := float64(p.Grad.Data[i])
		if math.Abs(num-analytic) > 5e-2*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s grad[%d]: numeric %v vs analytic %v", p.Name, i, num, analytic)
		}
		checks++
	}
	if checks < 4 {
		t.Fatalf("too few parameters checked: %d", checks)
	}
}
