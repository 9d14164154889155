package nn

import (
	"math"
	"testing"

	"socflow/internal/tensor"
)

// An eval twin of every catalog model shares each Param and batch-norm
// running-stat tensor with its model, owns everything else, and runs
// the model's eval forward bit for bit while the model runs its own on
// another goroutine. Its kernel counts are its own, and ReserveEval
// sizes buffers without counting.
func TestEvalTwinEveryModel(t *testing.T) {
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			inC := 3
			if name == "lenet5" {
				inC = 1
			}
			m := MustSpec(name).BuildMicro(tensor.NewRNG(3), inC, 8, 5)
			x := tensor.RandNormal(tensor.NewRNG(4), 0, 1, 6, inC, 8, 8)
			m.Forward(x, true) // running statistics off their 0/1 start
			twin := m.EvalTwin()
			for i, p := range twin.Params() {
				if p != m.Params()[i] {
					t.Fatalf("param %d (%s) is not the model's", i, p.Name)
				}
			}
			for i, s := range twin.StateTensors() {
				if s != m.StateTensors()[i] {
					t.Fatalf("state tensor %d is not the model's", i)
				}
			}
			if k := twin.KernelStats(); k != (KernelStats{}) {
				t.Fatalf("a new twin counts %+v", k)
			}
			twin.ReserveEval(tensor.New(8, inC, 8, 8))
			if k := twin.KernelStats(); k != (KernelStats{}) {
				t.Fatalf("ReserveEval counted %+v", k)
			}

			want := m.Forward(x, false).Clone()
			before := m.KernelStats()
			done := make(chan *tensor.Tensor)
			go func() { done <- twin.Forward(x, false) }()
			m.Forward(x, false)
			got := <-done
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("logit %d: twin %v, model %v", i, got.Data[i], want.Data[i])
				}
			}
			after, k := m.KernelStats(), twin.KernelStats()
			if k.GEMMOps != after.GEMMOps-before.GEMMOps || k.GEMMFLOPs != after.GEMMFLOPs-before.GEMMFLOPs ||
				k.ConvForward != after.ConvForward-before.ConvForward || k.DenseForward != after.DenseForward-before.DenseForward {
				t.Fatalf("one twin forward counts %+v, one model forward took the model from %+v to %+v", k, before, after)
			}
		})
	}
}
