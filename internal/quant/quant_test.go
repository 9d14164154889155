package quant

import (
	"math"
	"testing"
	"testing/quick"

	"socflow/internal/tensor"
)

// quantize nearest-rounds x onto its per-tensor INT8 grid through
// QuantizeSlice.
func quantize(x *tensor.Tensor) *QTensor {
	q := &QTensor{Shape: x.Shape, Codes: make([]int8, len(x.Data))}
	q.Scale = QuantizeSlice(q.Codes, x.Data)
	return q
}

// fakeQuantize returns FakeQuantizeInto's result in a new tensor.
func fakeQuantize(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	FakeQuantizeInto(out, x)
	return out
}

func TestQuantizeRoundTripBound(t *testing.T) {
	r := tensor.NewRNG(1)
	x := tensor.RandNormal(r, 0, 2, 100)
	q := quantize(x)
	d := q.Dequantize()
	// Nearest-rounding error is at most half the grid step per element.
	half := q.Scale / 2
	for i := range x.Data {
		if diff := float64(x.Data[i] - d.Data[i]); math.Abs(diff) > float64(half)+1e-6 {
			t.Fatalf("round-trip error %v exceeds half step %v", diff, half)
		}
	}
}

func TestQuantizeZeroTensor(t *testing.T) {
	q := quantize(tensor.New(5))
	if q.Scale != 1 {
		t.Fatalf("zero tensor scale = %v, want 1", q.Scale)
	}
	for _, c := range q.Codes {
		if c != 0 {
			t.Fatal("zero tensor must quantize to zero codes")
		}
	}
}

func TestQuantizeExtremesHitLimits(t *testing.T) {
	x := tensor.FromSlice([]float32{-3, 0, 3}, 3)
	q := quantize(x)
	if q.Codes[0] != -127 || q.Codes[2] != 127 || q.Codes[1] != 0 {
		t.Fatalf("codes = %v, want [-127 0 127]", q.Codes)
	}
}

func TestQTensorBytes(t *testing.T) {
	q := quantize(tensor.Ones(10))
	if q.Bytes() != 14 {
		t.Fatalf("Bytes = %d, want 14", q.Bytes())
	}
	if q.Size() != 10 {
		t.Fatalf("Size = %d", q.Size())
	}
}

func TestQTensorClone(t *testing.T) {
	q := quantize(tensor.Ones(3))
	c := q.Clone()
	c.Codes[0] = 0
	if q.Codes[0] == 0 {
		t.Fatal("Clone must deep-copy codes")
	}
}

func TestStochasticRoundingUnbiased(t *testing.T) {
	// A value exactly between two grid points should round up ~half the
	// time, keeping the expectation unbiased.
	rng := tensor.NewRNG(7)
	x := tensor.FromSlice([]float32{127, 0.5}, 2) // scale = 1, second value sits mid-grid
	var sum float64
	const n = 4000
	for i := 0; i < n; i++ {
		q := QuantizeStochastic(x, rng)
		sum += float64(q.Codes[1])
	}
	mean := sum / n
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("stochastic rounding mean = %v, want ~0.5", mean)
	}
}

func TestFakeQuantizeIdempotent(t *testing.T) {
	r := tensor.NewRNG(3)
	x := tensor.RandNormal(r, 0, 1, 64)
	once := fakeQuantize(x)
	twice := fakeQuantize(once)
	for i := range once.Data {
		if math.Abs(float64(once.Data[i]-twice.Data[i])) > 1e-6 {
			t.Fatalf("fake-quantize not idempotent at %d: %v vs %v", i, once.Data[i], twice.Data[i])
		}
	}
}

func TestFakeQuantizeInPlaceMatches(t *testing.T) {
	r := tensor.NewRNG(4)
	x := tensor.RandNormal(r, 0, 1, 32)
	want := fakeQuantize(x)
	FakeQuantizeInto(x, x)
	for i := range x.Data {
		if x.Data[i] != want.Data[i] {
			t.Fatalf("in-place mismatch at %d", i)
		}
	}
}

// TestQuantErrorProperties checks the relative L2 quantization error
// ‖t − fakequant(t)‖ / ‖t‖: 0 for a zero tensor, small and positive for
// a normal one.
func TestQuantErrorProperties(t *testing.T) {
	quantError := func(x *tensor.Tensor) float32 {
		n := x.L2Norm()
		if n == 0 {
			return 0
		}
		return tensor.Sub(x, fakeQuantize(x)).L2Norm() / n
	}
	if quantError(tensor.New(8)) != 0 {
		t.Fatal("zero tensor must have zero quant error")
	}
	r := tensor.NewRNG(5)
	x := tensor.RandNormal(r, 0, 1, 1000)
	e := quantError(x)
	if e <= 0 || e > 0.05 {
		t.Fatalf("INT8 relative error = %v, want small positive", e)
	}
}

func TestLogitConfidenceRange(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	if got := LogitConfidence(a, a); got < 0.999 {
		t.Fatalf("identical logits α = %v, want 1", got)
	}
	b := tensor.FromSlice([]float32{-1, 0, 0, -1}, 2, 2)
	if got := LogitConfidence(a, b); got != 0 {
		t.Fatalf("opposite logits α = %v, want 0 (clamped)", got)
	}
}

// Property: quantization round trip error is bounded by scale/2 + eps
// for arbitrary random tensors, and the scale always maps AbsMax to 127.
func TestQuantizeBoundProperty(t *testing.T) {
	root := tensor.NewRNG(99)
	f := func(seed uint64) bool {
		r := root.Split(seed)
		n := 1 + r.Intn(200)
		x := tensor.RandNormal(r, 0, 1+10*r.Float32(), n)
		q := quantize(x)
		d := q.Dequantize()
		for i := range x.Data {
			if math.Abs(float64(x.Data[i]-d.Data[i])) > float64(q.Scale)/2+1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: stochastic quantization is unbiased in expectation — the
// mean dequantized value over many draws approaches the true value.
func TestStochasticUnbiasedProperty(t *testing.T) {
	rng := tensor.NewRNG(13)
	x := tensor.FromSlice([]float32{127, 31.7}, 2) // scale 1, fractional value
	var sum float64
	const n = 6000
	for i := 0; i < n; i++ {
		q := QuantizeStochastic(x, rng)
		sum += float64(q.Codes[1])
	}
	if mean := sum / n; math.Abs(mean-31.7) > 0.15 {
		t.Fatalf("stochastic mean = %v, want ≈31.7", mean)
	}
}

func TestInt8SGDGridIsPersistent(t *testing.T) {
	// Once on its grid, a zero-gradient step must leave the weights
	// exactly in place: the grid does not drift between steps (the
	// property that distinguishes integer training from naive
	// re-quantization).
	rng := tensor.NewRNG(21)
	w := tensor.RandNormal(rng, 0, 1, 10, 5)
	zero := tensor.New(10, 5)
	opt := &Int8SGD{LR: 0.1, RNG: rng}
	opt.Step(w, zero) // anchors the grid and rounds onto it
	snapshot := w.Clone()
	for i := 0; i < 5; i++ {
		opt.Step(w, zero)
	}
	for i := range w.Data {
		if w.Data[i] != snapshot.Data[i] {
			t.Fatalf("zero-gradient steps moved weight %d: %v -> %v", i, snapshot.Data[i], w.Data[i])
		}
	}
}

func TestInt8SGDRequantizeIdempotent(t *testing.T) {
	rng := tensor.NewRNG(29)
	w := tensor.RandNormal(rng, 0, 1, 8, 4)
	opt := &Int8SGD{LR: 0.1, RNG: rng}
	opt.Requantize(w)
	once := w.Clone()
	opt.Requantize(w)
	for i := range w.Data {
		if w.Data[i] != once.Data[i] {
			t.Fatalf("Requantize not idempotent at %d", i)
		}
	}
}

func TestInt8SGDStepDescends(t *testing.T) {
	// A large gradient must move weights in the descent direction by
	// roughly lr·g despite grid rounding.
	rng := tensor.NewRNG(31)
	w := tensor.Ones(4, 4)
	g := tensor.Full(1, 4, 4)
	opt := &Int8SGD{LR: 0.5, RNG: rng}
	opt.Step(w, g)
	for _, v := range w.Data {
		if math.Abs(float64(v)-0.5) > 0.05 {
			t.Fatalf("descent step landed at %v, want ≈0.5", v)
		}
	}
}

func TestInt8SGDLosesTinyUpdates(t *testing.T) {
	// With a gradient far smaller than the grid step, most of the update
	// is lost per-step (recovered only in expectation). This is the
	// mechanism behind the paper's INT8 accuracy degradation.
	rng := tensor.NewRNG(22)
	// Element 0 anchors the scale at 2 (grid step 2/127 ≈ 0.0157);
	// element 1 receives an update ~150x smaller than the step.
	w := tensor.FromSlice([]float32{2, 1}, 2)
	g := tensor.FromSlice([]float32{0, 1e-4}, 2)
	opt := &Int8SGD{LR: 1, RNG: rng}
	exact := w.Data[1] - 1e-4
	opt.Step(w, g)
	// The realized value snaps to the INT8 grid, so its distance from
	// the exact SGD result dwarfs the intended update.
	if dev := math.Abs(float64(w.Data[1] - exact)); dev < 1e-3 {
		t.Fatalf("tiny update survived exactly (deviation %v); grid rounding should dominate", dev)
	}
}

func TestInt8SGDGradClip(t *testing.T) {
	rng := tensor.NewRNG(23)
	w := tensor.New(2)
	g := tensor.FromSlice([]float32{100, -100}, 2)
	opt := &Int8SGD{LR: 0.01, GradClip: 1, RNG: rng}
	opt.Step(w, g)
	// With clip 1 and lr 0.01 the step magnitude is ≈0.01; stochastic
	// requantization keeps it within one grid step of that.
	for _, v := range w.Data {
		if math.Abs(float64(v)) > 0.05 {
			t.Fatalf("clip failed, weight = %v", v)
		}
	}
	// The caller's gradient must not be mutated by clipping.
	if g.Data[0] != 100 {
		t.Fatal("Step must not mutate the caller's gradient")
	}
}

func TestStepParamsLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched StepParams must panic")
		}
	}()
	opt := &Int8SGD{LR: 0.1, RNG: tensor.NewRNG(1)}
	opt.StepParams([]*tensor.Tensor{tensor.New(1)}, nil)
}
