package quant

import (
	"math"
	"testing"

	"socflow/internal/tensor"
)

// Quantization used to destroy NaN evidence: AbsMax skips NaN (a > m is
// false), so a tensor holding NaN got a finite scale and clampInt8(NaN)
// fell through both comparisons into a platform-dependent int8(NaN)
// conversion — the poison the GEMM kernels deliberately preserve
// (tensor/nan_test.go) silently became a small finite weight. These
// regressions pin the fix across every quantization entry point.

func nanT(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(i%7) - 3
	}
	t.Data[len(t.Data)/2] = float32(math.NaN())
	return t
}

func countNaN(t *tensor.Tensor) int {
	n := 0
	for _, v := range t.Data {
		if v != v {
			n++
		}
	}
	return n
}

func TestQuantizePoisonsOnNaN(t *testing.T) {
	q := quantize(nanT(4, 5))
	if !isNaN32(q.Scale) {
		t.Fatalf("Quantize of NaN tensor produced finite scale %v", q.Scale)
	}
	d := q.Dequantize()
	if countNaN(d) != len(d.Data) {
		t.Fatalf("poisoned QTensor dequantized to finite values: %v", d.Data)
	}
}

func TestQuantizePoisonsOnInf(t *testing.T) {
	x := tensor.New(3, 3)
	x.Data[4] = float32(math.Inf(1))
	q := quantize(x)
	if !isNaN32(q.Scale) {
		t.Fatalf("Quantize of Inf tensor produced finite scale %v", q.Scale)
	}
}

func TestQuantizeStochasticPoisonsOnNaN(t *testing.T) {
	q := QuantizeStochastic(nanT(4, 5), tensor.NewRNG(1))
	if !isNaN32(q.Scale) {
		t.Fatalf("QuantizeStochastic of NaN tensor produced finite scale %v", q.Scale)
	}
}

func TestFakeQuantizePreservesNaN(t *testing.T) {
	x := nanT(6, 6)
	nanIdx := len(x.Data) / 2
	out := fakeQuantize(x)
	if !isNaN32(out.Data[nanIdx]) {
		t.Fatalf("FakeQuantize converted NaN to %v", out.Data[nanIdx])
	}
	// Clean elements stay finite: the poison is per-element here, since
	// the result remains a float tensor that can carry it.
	if isNaN32(out.Data[0]) {
		t.Fatalf("FakeQuantize leaked NaN into clean element")
	}
}

func TestFakeQuantizePoisonsAllOnInf(t *testing.T) {
	x := tensor.New(8)
	x.Data[3] = float32(math.Inf(-1))
	out := fakeQuantize(x)
	if countNaN(out) != len(out.Data) {
		t.Fatalf("Inf absmax must poison the whole tensor, got %v", out.Data)
	}
}

// TestFakeQuantizePerChannelPreservesNaN rounds onto per-channel grids
// through Requantize, whose fresh grid skips the NaN like AbsMax.
func TestFakeQuantizePerChannelPreservesNaN(t *testing.T) {
	x := nanT(4, 9)
	nanIdx := len(x.Data) / 2
	(&Int8SGD{}).Requantize(x)
	if !isNaN32(x.Data[nanIdx]) {
		t.Fatalf("per-channel fake quant converted NaN to %v", x.Data[nanIdx])
	}
	if isNaN32(x.Data[0]) {
		t.Fatalf("per-channel fake quant leaked NaN into a clean channel")
	}
}

func TestQuantizeStochasticPerChannelPreservesNaN(t *testing.T) {
	x := nanT(4, 9)
	nanIdx := len(x.Data) / 2
	QuantizeStochasticPerChannelInPlace(x, tensor.NewRNG(2))
	if !isNaN32(x.Data[nanIdx]) {
		t.Fatalf("per-channel stochastic quant converted NaN to %v", x.Data[nanIdx])
	}
}

func TestInt8SGDStepPropagatesNaNGradient(t *testing.T) {
	w := tensor.New(2, 8)
	for i := range w.Data {
		w.Data[i] = 0.5
	}
	g := tensor.New(2, 8)
	g.Data[5] = float32(math.NaN())
	opt := &Int8SGD{LR: 0.1, RNG: tensor.NewRNG(3)}
	opt.Step(w, g)
	if !isNaN32(w.Data[5]) {
		t.Fatalf("Int8SGD.Step hid a NaN gradient: w[5] = %v", w.Data[5])
	}
	if isNaN32(w.Data[0]) {
		t.Fatalf("Int8SGD.Step leaked NaN into a clean weight")
	}
}

func TestInt8SGDRequantizePreservesNaN(t *testing.T) {
	w := tensor.New(2, 8)
	for i := range w.Data {
		w.Data[i] = 0.25
	}
	opt := &Int8SGD{LR: 0.1, RNG: tensor.NewRNG(4)}
	opt.Step(w, tensor.New(2, 8)) // anchor the grid while w is clean
	w.Data[3] = float32(math.NaN())
	opt.Requantize(w)
	if !isNaN32(w.Data[3]) {
		t.Fatalf("Requantize converted NaN to %v", w.Data[3])
	}
}
