package core

import (
	"context"
	"runtime"
	"testing"

	"socflow/internal/dataset"
	"socflow/internal/nn"
)

// BenchmarkSoCFlowMixedRun is the train-conv benchmark workload's job at
// its smoke size (vgg11/cifar10, 32 SoCs in 8 groups, Mixed auto, 256
// training samples, 2 epochs): the group-epoch rung, where the groups'
// steps, α probes and Eq. 5 merges fan out and the cross-group
// averaging does not. The fan-out width is GOMAXPROCS, so
//
//	go test -run '^$' -bench SoCFlowMixedRun -cpu 1,2 ./internal/core
//
// shows what the concurrent part gains from a second core. Dataset
// generation stays outside the timer.
func BenchmarkSoCFlowMixedRun(b *testing.B) {
	prof := dataset.MustProfile("cifar10")
	pool := prof.Generate(dataset.GenOptions{Samples: 256 + 128, Seed: 1})
	train, val := pool.Split(256.0 / float64(pool.Len()))
	job := &Job{
		Spec: nn.MustSpec("vgg11"), Train: train, Val: val,
		PaperSamples: prof.PaperTrainN, GlobalBatch: 16, PaperBatch: 64,
		LR: 0.02, Momentum: 0.9, Epochs: 2, Seed: 1,
		Width: runtime.GOMAXPROCS(0),
	}
	clu := cluN(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&SoCFlow{NumGroups: 8, Mixed: MixedAuto}).Run(context.Background(), job, clu); err != nil {
			b.Fatal(err)
		}
	}
}
