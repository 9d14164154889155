package nn

import (
	"fmt"
	"testing"

	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

// TestLeNetTrainStepSteadyStateAllocations measures a full training
// step (ZeroGrad, forward, loss, backward, optimizer step) on the
// micro LeNet after warmup. With persistent layer buffers and the *Into
// kernel layer, every layer's forward and backward is exactly
// allocation-free; the only per-step allocations left are the three
// objects behind the loss gradient tensor SoftmaxCrossEntropy hands to
// the caller (struct, shape, data). The bound is exact so a
// buffer-reuse regression anywhere in the layer stack fails loudly. The
// pool widths are named, not inherited from the host: kernels run on
// their caller, so the width must not matter.
func TestLeNetTrainStepSteadyStateAllocations(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.Set(workers)
			defer parallel.Set(prev)

			rng := tensor.NewRNG(17)
			model := MustSpec("lenet5").BuildMicro(rng, 1, 16, 10)
			opt := NewSGD(0.01, 0.9, 0)
			x := tensor.RandNormal(rng, 0, 1, 4, 1, 16, 16)
			labels := []int{1, 2, 3, 4}
			params := model.Params()

			step := func() {
				model.ZeroGrad()
				out := model.Forward(x, true)
				_, grad := SoftmaxCrossEntropy(out, labels)
				model.Backward(grad)
				opt.Step(params)
			}
			// Warm up so every layer's persistent buffers and the
			// optimizer's velocity tensors exist.
			for i := 0; i < 3; i++ {
				step()
			}
			const budget = 3
			if allocs := testing.AllocsPerRun(10, step); allocs > budget {
				t.Errorf("train step allocates %v objects, want <= %d", allocs, budget)
			}
		})
	}
}
