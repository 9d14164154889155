package nn

import (
	"math"
	"testing"

	"socflow/internal/quant"
	"socflow/internal/tensor"
)

func cosine(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	return dot / math.Sqrt(na*nb)
}

// npuForward runs l the way the NPU replica does (core.MixedPrecision's
// quantForward): weights on their persistent INT8 grids, the input
// fake-quantized onto its own grid, then the float forward.
func npuForward(l Layer, w *tensor.Tensor, x *tensor.Tensor) *tensor.Tensor {
	(&quant.Int8SGD{}).Requantize(w)
	xq := tensor.New(x.Shape...)
	quant.FakeQuantizeInto(xq, x)
	return l.Forward(xq, true)
}

// TestConv2DForwardViaApproximatesFloat checks the NPU conv datapath:
// the quantized result must track the FP32 path within quantization
// error, and the caches it populates must support a full Backward pass.
func TestConv2DForwardViaApproximatesFloat(t *testing.T) {
	r := tensor.NewRNG(31)
	c := NewConv2D(r, 3, 8, 3, 1, 1)
	for i := range c.Bias.W.Data {
		c.Bias.W.Data[i] = 0.05 * float32(i)
	}
	x := tensor.RandNormal(tensor.NewRNG(32), 0, 1, 2, 3, 8, 8)

	want := c.Forward(x, true).Clone()
	got := npuForward(c, c.Weight.W, x)
	if !want.SameShape(got) {
		t.Fatalf("shape mismatch %v vs %v", want.Shape, got.Shape)
	}
	if cos := cosine(want.Data, got.Data); cos < 0.999 {
		t.Fatalf("INT8 conv diverged from float path: cosine %v", cos)
	}
	// The NPU path is genuinely quantized, not the float path in
	// disguise: some outputs must differ.
	same := 0
	for i := range want.Data {
		if want.Data[i] == got.Data[i] {
			same++
		}
	}
	if same == len(want.Data) {
		t.Fatalf("INT8 conv output is bit-identical to float32 — not quantized")
	}

	g := tensor.RandNormal(tensor.NewRNG(33), 0, 1, got.Shape...)
	dx := c.Backward(g)
	for i, v := range dx.Data {
		if v != v {
			t.Fatalf("backward after the NPU forward produced NaN at %d", i)
		}
	}
}

func TestDenseForwardViaApproximatesFloat(t *testing.T) {
	r := tensor.NewRNG(34)
	d := NewDense(r, 12, 7)
	for i := range d.Bias.W.Data {
		d.Bias.W.Data[i] = 0.1 * float32(i)
	}
	x := tensor.RandNormal(tensor.NewRNG(35), 0, 1, 5, 12)

	want := d.Forward(x, true).Clone()
	got := npuForward(d, d.Weight.W, x)
	if cos := cosine(want.Data, got.Data); cos < 0.999 {
		t.Fatalf("INT8 dense diverged from float path: cosine %v", cos)
	}

	g := tensor.RandNormal(tensor.NewRNG(36), 0, 1, got.Shape...)
	dx := d.Backward(g)
	for i, v := range dx.Data {
		if v != v {
			t.Fatalf("backward after the NPU forward produced NaN at %d", i)
		}
	}
}
