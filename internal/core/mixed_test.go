package core

import (
	"math"
	"testing"

	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/tensor"
)

func microMP(t *testing.T, beta float64) *MixedPrecision {
	t.Helper()
	root := tensor.NewRNG(7)
	ref := nn.MustSpec("lenet5").BuildMicro(root, 1, 8, 3)
	build := func() *nn.Sequential { return nn.MustSpec("lenet5").BuildMicro(root.Split(3), 1, 8, 3) }
	return NewMixedPrecision(ref, build, 0.05, 0.9, beta, root.Split(9))
}

func TestCPUShareController(t *testing.T) {
	mp := microMP(t, 0.8)
	// Fresh model: α = 1 → e^−1 ≈ 0.368 vs load-balance floor 0.2.
	if got := mp.CPUShare(); math.Abs(got-math.Exp(-1)) > 1e-9 {
		t.Fatalf("CPUShare = %v, want e^-1", got)
	}
	// INT8 drift: α → 0 pushes everything to the CPU.
	mp.Alpha = 0
	if got := mp.CPUShare(); got != 1 {
		t.Fatalf("α=0 CPUShare = %v, want 1", got)
	}
	// Very confident INT8: the load-balance floor 1−β binds.
	mp.Alpha = 5
	if got := mp.CPUShare(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("confident CPUShare = %v, want 1-β = 0.2", got)
	}
}

func TestCPUShareForceOverride(t *testing.T) {
	mp := microMP(t, 0.8)
	mp.ForceCPUShare = 0
	if mp.CPUShare() != 0 {
		t.Fatal("forced INT8-only share wrong")
	}
	mp.ForceCPUShare = 0.5
	if mp.CPUShare() != 0.5 {
		t.Fatal("forced half share wrong")
	}
}

func TestSplitBatchBounds(t *testing.T) {
	mp := microMP(t, 0.8)
	for _, n := range []int{1, 2, 7, 64} {
		c, p := mp.SplitBatch(n)
		if c < 0 || p < 0 || c+p != n {
			t.Fatalf("SplitBatch(%d) = %d + %d", n, c, p)
		}
	}
	mp.ForceCPUShare = 0
	c, p := mp.SplitBatch(10)
	if c != 0 || p != 10 {
		t.Fatalf("forced 0 split = %d/%d", c, p)
	}
}

func TestMergeEq5(t *testing.T) {
	mp := microMP(t, 0.8)
	// Set distinguishable weights and merge with a known α.
	mp.Alpha = math.Ln2 // e^−α = 0.5
	for _, w := range mp.FP32.Weights() {
		w.Fill(1)
	}
	for _, w := range mp.INT8.Weights() {
		w.Fill(3)
	}
	mp.Merge()
	// w = 0.5·1 + 0.5·3 = 2 on the FP32 side.
	for _, w := range mp.FP32.Weights() {
		for _, v := range w.Data {
			if math.Abs(float64(v)-2) > 1e-5 {
				t.Fatalf("merged weight %v, want 2", v)
			}
		}
	}
	// INT8 side adopts the merge onto its persistent grid: close to the
	// FP32 value, within one grid step.
	fws := mp.FP32.Weights()
	for wi, w := range mp.INT8.Weights() {
		for i := range w.Data {
			if math.Abs(float64(w.Data[i]-fws[wi].Data[i])) > 0.05 {
				t.Fatalf("INT8 replica too far from merge: %v vs %v", w.Data[i], fws[wi].Data[i])
			}
		}
	}
}

func TestUpdateAlphaTracksDivergence(t *testing.T) {
	mp := microMP(t, 0.8)
	val := dataset.MustProfile("fmnist").Generate(dataset.GenOptions{Samples: 30, Seed: 3})
	val = &dataset.Dataset{Name: val.Name, X: val.X, Labels: val.Labels, Classes: 3}
	for i, y := range val.Labels {
		val.Labels[i] = y % 3
	}
	mp.UpdateAlpha(val, 16)
	aligned := mp.Alpha
	if aligned < 0.5 {
		t.Fatalf("aligned replicas should have high α, got %v", aligned)
	}
	// Corrupt the INT8 replica; α must fall.
	r := tensor.NewRNG(99)
	for _, w := range mp.INT8.Weights() {
		for i := range w.Data {
			w.Data[i] = 2 * r.Normal()
		}
	}
	mp.UpdateAlpha(val, 16)
	if mp.Alpha >= aligned {
		t.Fatalf("α should fall after INT8 divergence: %v -> %v", aligned, mp.Alpha)
	}
}

func TestMixedStepTrainsBothReplicas(t *testing.T) {
	mp := microMP(t, 0.5)
	r := tensor.NewRNG(17)
	x := tensor.RandNormal(r, 0, 1, 8, 1, 8, 8)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	before := mp.FP32.Weights()[0].Clone()
	loss := mp.Step(x, labels)
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	after := mp.FP32.Weights()[0]
	moved := false
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("weights did not move after a mixed step")
	}
	// Within an epoch the replicas follow independent trajectories;
	// EndEpoch reconciles them via Eq. 5 (up to INT8 grid rounding).
	val := dataset.MustProfile("fmnist").Generate(dataset.GenOptions{Samples: 12, Seed: 9})
	for i, y := range val.Labels {
		val.Labels[i] = y % 3
	}
	val.Classes = 3
	mp.EndEpoch(val, 12)
	for wi, fw := range mp.FP32.Weights() {
		iw := mp.INT8.Weights()[wi]
		// Within one (generous) grid step of the merged weights.
		tol := 0.05 * float64(1+fw.AbsMax())
		for i := range fw.Data {
			if math.Abs(float64(fw.Data[i]-iw.Data[i])) > tol {
				t.Fatalf("replicas diverged after merge: %v vs %v", fw.Data[i], iw.Data[i])
			}
		}
	}
}

func TestMixedLearnsSeparableTask(t *testing.T) {
	// End-to-end: the mixed-precision controller must actually learn.
	prof := dataset.MustProfile("celeba")
	train := prof.Generate(dataset.GenOptions{Samples: 128, Seed: 5})
	root := tensor.NewRNG(11)
	spec := nn.MustSpec("lenet5")
	ref := spec.BuildMicro(root, 3, 8, 2)
	build := func() *nn.Sequential { return spec.BuildMicro(root.Split(2), 3, 8, 2) }
	mp := NewMixedPrecision(ref, build, 0.05, 0.9, 0.75, root.Split(4))

	it := dataset.NewBatchIterator(train, 32, 21)
	for e := 0; e < 12; e++ {
		mp.UpdateAlpha(train, 32)
		for i := 0; i < it.BatchesPerEpoch(); i++ {
			x, labels := it.Next()
			mp.Step(x, labels)
		}
	}
	acc := EvalAccuracy(mp.FP32, train)
	if acc < 0.85 {
		t.Fatalf("mixed training reached only %v accuracy", acc)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	root := tensor.NewRNG(3)
	model := nn.MustSpec("resnet18").BuildMicro(root, 3, 8, 4)
	cp := TakeCheckpoint(5, model.Weights(), model.StateTensors())
	// Scramble the model, then restore.
	for _, w := range model.Weights() {
		w.Fill(123)
	}
	cp.Restore(model.Weights(), model.StateTensors())
	if model.Weights()[0].Data[0] == 123 {
		t.Fatal("restore did not overwrite scrambled weights")
	}
	if cp.Epoch != 5 {
		t.Fatalf("checkpoint epoch %d", cp.Epoch)
	}
	// Checkpoint must be isolated from later mutation.
	w0 := cp.Weights[0].Data[0]
	model.Weights()[0].Fill(9)
	if cp.Weights[0].Data[0] != w0 {
		t.Fatal("checkpoint aliases live tensors")
	}
}
