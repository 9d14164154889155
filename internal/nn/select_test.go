package nn

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"socflow/internal/tensor"
)

// reluOracle is the ReLU select as a float compare, the loop the bit
// select replaced.
func reluOracle(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

// TestReLUSelectExhaustive holds relu to the float compare on all 2³²
// bit patterns: v itself exactly when v > 0, +0 for NaN, −0 and every
// negative.
func TestReLUSelectExhaustive(t *testing.T) {
	workers := uint32(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bad := 0
			for b := uint64(w); b < 1<<32 && bad < 5; b += uint64(workers) {
				v := math.Float32frombits(uint32(b))
				if got, want := math.Float32bits(relu(v)), math.Float32bits(reluOracle(v)); got != want {
					t.Errorf("relu(%#08x) = %#08x, the float compare gives %#08x", b, got, want)
					bad++
				}
			}
		}()
	}
	wg.Wait()
}

// selectSpecials are the values whose order and sign the selects must
// get right: NaN, −Inf, −1, −0, +0, the smallest denormal, 1, +Inf.
var selectSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(-1)), -1, float32(math.Copysign(0, -1)),
	0, math.Float32frombits(1), 1, float32(math.Inf(1)),
}

// TestReLUBackwardOnSpecialOutputs checks ReLU.Backward keyed on out's
// bits against the float compare out > 0, for every special out and
// every special gradient, NaN gradients passing through unchanged.
func TestReLUBackwardOnSpecialOutputs(t *testing.T) {
	n := len(selectSpecials)
	r := NewReLU()
	r.out = tensor.New(n * n)
	grad := tensor.New(n * n)
	for i, o := range selectSpecials {
		for j, g := range selectSpecials {
			r.out.Data[i*n+j], grad.Data[i*n+j] = o, g
		}
	}
	dx := r.Backward(grad)
	for i, o := range selectSpecials {
		for j, g := range selectSpecials {
			want := float32(0)
			if o > 0 {
				want = g
			}
			if got := dx.Data[i*n+j]; math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("out %v, grad %v: dx %#08x, want %#08x", o, g, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
}

// mustPanicNaming runs f and fails unless it panics with a message
// that names layer.
func mustPanicNaming(t *testing.T, layer string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s: Backward after an eval Forward did not panic", layer)
		}
		if msg, _ := r.(string); !strings.Contains(msg, layer+".Backward") {
			t.Fatalf("%s: panic %v does not name the layer", layer, r)
		}
	}()
	f()
}

// TestBackwardAfterEvalForwardPanics: an eval forward keeps no backward
// state, so a Backward that follows one panics and names the layer
// instead of scattering stale argmaxes or normalizing with stale xhat.
// A train forward, even one right after an eval forward, still feeds
// Backward exactly as before.
func TestBackwardAfterEvalForwardPanics(t *testing.T) {
	x := tensor.RandNormal(tensor.NewRNG(3), 0, 1, 2, 3, 6, 6)

	pool := NewMaxPool2D(2, 2)
	out := pool.Forward(x, false)
	mustPanicNaming(t, "MaxPool2D", func() { pool.Backward(out) })

	block := func() *Sequential {
		r := tensor.NewRNG(5)
		return NewSequential(NewConv2D(r, 3, 4, 3, 1, 1), NewBatchNorm2D(4), NewReLU(), NewMaxPool2D(2, 2))
	}
	m := block()
	out = m.Forward(x, false)
	if m.plan[0].fused == nil || m.plan[0].fused.bn == nil {
		t.Fatal("Conv+BN+ReLU did not fuse")
	}
	mustPanicNaming(t, "MaxPool2D", func() { m.Backward(out) })
	g := tensor.RandNormal(tensor.NewRNG(7), 0, 1, m.Layers[2].(*ReLU).out.Shape...)
	mustPanicNaming(t, "BatchNorm2D", func() { m.Layers[1].Backward(g) })

	// A train step on a fresh block and on one that served eval
	// forwards first: the same bits everywhere.
	step := func(m *Sequential) []*tensor.Tensor {
		out := m.Forward(x, true)
		m.Backward(tensor.Full(1, out.Shape...))
		return append(append([]*tensor.Tensor{out}, m.Grads()...), m.StateTensors()...)
	}
	want := step(block())
	m = block()
	m.Forward(x, false)
	m.Forward(x, false)
	got := step(m)
	for i := range want {
		requireSameBits(t, "train step after eval forwards", cloneBits(want[i]), got[i])
	}
}

// TestConvEvalWeightCacheFollowsBits: the eval forward's cached Wᵀ is
// re-taken whenever Weight's bits change — an in-place step, a NaN, and
// a +0 turned −0, which float equality would miss — and an eval forward
// gives the training forward's bits throughout.
func TestConvEvalWeightCacheFollowsBits(t *testing.T) {
	r := tensor.NewRNG(9)
	c := NewConv2D(r, 3, 5, 3, 1, 1)
	x := tensor.RandNormal(r, 0, 1, 2, 3, 5, 5)
	check := func(what string) {
		t.Helper()
		wt := tensor.New(c.Weight.W.Shape[1], c.Weight.W.Shape[0])
		tensor.Transpose2DInto(wt, c.Weight.W)
		requireSameBits(t, what+": cached Wᵀ", cloneBits(wt), c.weightT())
		want := cloneBits(c.Forward(x, true))
		requireSameBits(t, what+": eval forward", want, c.Forward(x, false))
	}
	check("fresh weights")
	w := c.Weight.W.Data
	for i := range w {
		w[i] -= 0.01 * w[i]
	}
	check("after an in-place step")
	w[7] = float32(math.NaN())
	check("after a NaN weight")
	w[7] = 0
	check("after a +0 weight")
	w[7] = float32(math.Copysign(0, -1))
	check("after the +0 weight turned −0")
	before := &c.wSrc[0]
	c.Forward(x, false)
	if &c.wSrc[0] != before {
		t.Fatal("an unchanged weight reallocated the cache")
	}
}
