package runtime

import (
	"context"
	"math"
	"testing"

	"socflow/internal/collective"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// serialReference re-executes RunDistributed's exact schedule without
// any concurrency or messaging: per group one model consumes the full
// group batch (the SSGD lift), weights average across groups per
// epoch, shards reshuffle identically. If the concurrent runtime's
// collectives are correct, its final model must match this reference
// to floating-point tolerance.
func serialReference(spec *nn.Spec, train, val *dataset.Dataset, cfg DistConfig) *nn.Sequential {
	numGroups := cfg.Plan.Groups()
	models := make([]*nn.Sequential, numGroups)
	opts := make([]*nn.SGD, numGroups)
	for g := range models {
		models[g] = spec.BuildMicro(tensor.NewRNG(cfg.Seed), train.Channels(), train.ImageSize(), train.Classes)
		opts[g] = nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	}
	shards := train.ShardIID(numGroups, cfg.Seed+1)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for g := range models {
			it := dataset.NewBatchIterator(shards[g], cfg.GlobalBatch, cfg.Seed+uint64(100+epoch))
			for i := 0; i < it.BatchesPerEpoch(); i++ {
				x, labels := it.Next()
				models[g].ZeroGrad()
				logits := models[g].Forward(x, true)
				_, gr := nn.SoftmaxCrossEntropy(logits, labels)
				models[g].Backward(gr)
				opts[g].Step(models[g].Params())
			}
		}
		sets := make([][]*tensor.Tensor, numGroups)
		for g := range models {
			sets[g] = append(models[g].Weights(), models[g].StateTensors()...)
		}
		collective.AverageInPlace(sets)
		shards = dataset.Reshuffle(shards, cfg.Seed+uint64(1000+epoch))
	}
	return models[0]
}

// The distributed goroutine/message-passing execution must agree with
// the serial lift. VGG micro (no batch norm) makes the SSGD lift exact,
// so the comparison is tight: any error in chunk indexing, framing, or
// aggregation order shows up here.
func TestDistributedMatchesSerialLift(t *testing.T) {
	prof := dataset.MustProfile("cifar10")
	pool := prof.Generate(dataset.GenOptions{Samples: 240, Seed: 5})
	train, val := pool.Split(0.8)
	spec := nn.MustSpec("vgg11")
	cfg := DistConfig{
		JobSpec: core.JobSpec{Epochs: 3, GlobalBatch: 16, LR: 0.02, Momentum: 0.9, Seed: 12},
		Plan:    dataPlan(8, 16, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}),
	}

	dist, err := RunDistributed(context.Background(), transport.NewChanMesh(8), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := serialReference(spec, train, val, cfg)

	dw, rw := dist.Final.Weights(), ref.Weights()
	if len(dw) != len(rw) {
		t.Fatalf("weight sets differ: %d vs %d", len(dw), len(rw))
	}
	var maxDiff float64
	for ti := range dw {
		for j := range dw[ti].Data {
			d := math.Abs(float64(dw[ti].Data[j] - rw[ti].Data[j]))
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	// Float32 summation-order differences accumulate over ~45 steps;
	// anything beyond 1e-3 means a protocol bug, not rounding.
	if maxDiff > 1e-3 {
		t.Fatalf("distributed and serial lift diverged: max weight diff %v", maxDiff)
	}

	distAcc := core.EvalAccuracy(dist.Final, val)
	refAcc := core.EvalAccuracy(ref, val)
	if math.Abs(distAcc-refAcc) > 0.05 {
		t.Fatalf("accuracy mismatch: distributed %v vs serial %v", distAcc, refAcc)
	}
}

// Regression for the global-batch truncation bug: with a group size
// that does not divide BS_g (5 members, batch 16) the runtime used to
// train on floor(16/5)*5 = 15 samples per iteration. The serial lift
// consumes the full batch, so matching it proves the remainder is now
// trained, not dropped.
func TestDistributedRaggedGroupMatchesSerialLift(t *testing.T) {
	prof := dataset.MustProfile("fmnist")
	pool := prof.Generate(dataset.GenOptions{Samples: 200, Seed: 3})
	train, val := pool.Split(0.8)
	spec := nn.MustSpec("lenet5")
	cfg := DistConfig{
		JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 16, LR: 0.02, Momentum: 0.9, Seed: 8},
		Plan:    dataPlan(8, 16, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7}}),
	}

	dist, err := RunDistributed(context.Background(), transport.NewChanMesh(8), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := serialReference(spec, train, val, cfg)

	dw, rw := dist.Final.Weights(), ref.Weights()
	var maxDiff float64
	for ti := range dw {
		for j := range dw[ti].Data {
			d := math.Abs(float64(dw[ti].Data[j] - rw[ti].Data[j]))
			if d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1e-3 {
		t.Fatalf("ragged-group distributed run diverged from serial lift: max weight diff %v", maxDiff)
	}
}
