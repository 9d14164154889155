package nn

import (
	"math"
	"testing"

	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

// The fused conv-block forward (fused.go) must be bit-identical to the
// unfused layer sequence — outputs, backward caches, running
// statistics, and gradients — including when training groups run it
// concurrently. These tests run the same model through both paths and
// compare every bit.

// fusedStack builds a model that exercises all three fusable patterns
// (Conv+BN+ReLU, Conv+ReLU, Conv+BN) plus unfusable interleaving.
func fusedStack() *Sequential {
	r := tensor.NewRNG(91)
	return NewSequential(
		NewConv2D(r, 3, 8, 3, 1, 1),
		NewBatchNorm2D(8),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(r, 8, 12, 3, 1, 1),
		NewReLU(),
		NewConv2D(r, 12, 12, 3, 1, 1),
		NewBatchNorm2D(12),
	)
}

// unfusedForward bypasses the execution plan by calling each layer
// directly, exactly what Sequential.Forward did before fusion.
func unfusedForward(m *Sequential, x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x, train)
	}
	return x
}

func cloneBits(t *tensor.Tensor) []uint32 {
	out := make([]uint32, len(t.Data))
	for i, v := range t.Data {
		out[i] = math.Float32bits(v)
	}
	return out
}

// requireSameBits reports the first bit that differs. It uses Errorf,
// so concurrent checks may call it off the test goroutine.
func requireSameBits(t *testing.T, name string, want []uint32, got *tensor.Tensor) {
	t.Helper()
	if len(want) != len(got.Data) {
		t.Errorf("%s: size %d vs %d", name, len(want), len(got.Data))
		return
	}
	for i, w := range want {
		if g := math.Float32bits(got.Data[i]); g != w {
			t.Errorf("%s: bit mismatch at %d: %08x vs %08x", name, i, w, g)
			return
		}
	}
}

func testFusedMatchesUnfused(t *testing.T) {
	m := fusedStack()
	r := tensor.NewRNG(17)
	x := tensor.RandNormal(r, 0, 1, 4, 3, 10, 10)

	// Snapshot BN running stats so both paths start identically.
	stateBefore := make([]*tensor.Tensor, 0)
	for _, st := range m.StateTensors() {
		stateBefore = append(stateBefore, st.Clone())
	}
	restoreState := func() {
		for i, st := range m.StateTensors() {
			st.CopyFrom(stateBefore[i])
		}
	}

	// Unfused reference: forward, backward, record every bit.
	outU := unfusedForward(m, x, true)
	outUBits := cloneBits(outU)
	g := tensor.RandNormal(tensor.NewRNG(23), 0, 1, outU.Shape...)
	m.ZeroGrad()
	dxU := m.Backward(g)
	dxUBits := cloneBits(dxU)
	gradUBits := make([][]uint32, 0)
	for _, p := range m.Params() {
		gradUBits = append(gradUBits, cloneBits(p.Grad))
	}
	stateUBits := make([][]uint32, 0)
	for _, st := range m.StateTensors() {
		stateUBits = append(stateUBits, cloneBits(st))
	}

	// Fused path: same weights, same input, same incoming gradient.
	restoreState()
	m.ZeroGrad()
	outF := m.Forward(x, true)
	requireSameBits(t, "forward output", outUBits, outF)
	for i, st := range m.StateTensors() {
		requireSameBits(t, "running stats", stateUBits[i], st)
	}
	dxF := m.Backward(g)
	requireSameBits(t, "input gradient", dxUBits, dxF)
	for i, p := range m.Params() {
		requireSameBits(t, "grad "+p.Name, gradUBits[i], p.Grad)
	}

	// Eval mode: batch-norm switches to running statistics.
	evalU := unfusedForward(m, x, false)
	evalUBits := cloneBits(evalU)
	evalF := m.Forward(x, false)
	requireSameBits(t, "eval output", evalUBits, evalF)
}

func TestFusedMatchesUnfusedSerial(t *testing.T) { testFusedMatchesUnfused(t) }

// TestFusedMatchesUnfusedParallel runs the check in eight concurrent
// groups, each on its own model, the way training groups fan out.
func TestFusedMatchesUnfusedParallel(t *testing.T) {
	const groups = 8
	prev := parallel.Set(groups)
	defer parallel.Set(prev)
	parallel.Do(groups, func(int) { testFusedMatchesUnfused(t) })
}

// TestFusionPlanInvalidatedByAdd pins that Add rebuilds the plan: a
// trailing ReLU added after the first forward must fuse with the conv
// in front of it and still produce the unfused sequence's bits.
func TestFusionPlanInvalidatedByAdd(t *testing.T) {
	r := tensor.NewRNG(5)
	m := NewSequential(NewConv2D(r, 2, 4, 3, 1, 1))
	x := tensor.RandNormal(tensor.NewRNG(6), 0, 1, 2, 2, 6, 6)
	m.Forward(x, true) // builds a plan with a bare conv
	m.Add(NewReLU())
	want := cloneBits(unfusedForward(m, x, true))
	got := m.Forward(x, true)
	requireSameBits(t, "post-Add output", want, got)
	for _, v := range got.Data {
		if v < 0 {
			t.Fatalf("ReLU did not run after Add: got %v", v)
		}
	}
}

// TestResidualBodyFuses pins that fusion fires inside nested
// Sequentials (residual block bodies), the layout the ResNet builder
// uses.
func TestResidualBodyFuses(t *testing.T) {
	r := tensor.NewRNG(8)
	body := NewSequential(
		NewConv2D(r, 4, 4, 3, 1, 1),
		NewBatchNorm2D(4),
		NewReLU(),
		NewConv2D(r, 4, 4, 3, 1, 1),
		NewBatchNorm2D(4),
	)
	m := NewSequential(NewResidual(body, nil))
	x := tensor.RandNormal(tensor.NewRNG(9), 0, 1, 2, 4, 6, 6)

	stateBefore := make([]*tensor.Tensor, 0)
	for _, st := range m.StateTensors() {
		stateBefore = append(stateBefore, st.Clone())
	}
	// Reference: run the body unfused inside the residual by hand.
	ref := unfusedForward(body, x, true)
	sum := tensor.Add(ref, x)
	want := make([]uint32, len(sum.Data))
	for i, v := range sum.Data {
		if v < 0 {
			v = 0
		}
		want[i] = math.Float32bits(v)
	}
	for i, st := range m.StateTensors() {
		st.CopyFrom(stateBefore[i])
	}
	got := m.Forward(x, true)
	requireSameBits(t, "residual output", want, got)

	if len(body.plan) != 2 || body.plan[0].fused == nil || body.plan[1].fused == nil {
		t.Fatalf("residual body did not fuse: plan %+v", body.plan)
	}
}
