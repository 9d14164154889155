package runtime

import (
	"context"
	"math"
	"reflect"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/transport"
)

// checkMeshMatchesCore runs one data plan on the mesh and the same job
// through core.SoCFlow in FP32 (the strategy the planner prices), and
// requires equal accuracies and final weights within tol. Both ask
// dataset.Schedule which batches each group walks and how many, so they
// train on the same samples in the same order. What remains is float
// order only: a member's slice of the group batch is rescaled by its
// share before the group's ring sums it (core runs the whole batch on
// one model), and the mesh averages across groups on a ring where core
// calls collective.AverageInPlace. Beyond that (measured ≤ 1.8e-7 over
// these cases), a gap means a protocol bug: a chunk indexed wrong, a
// frame misread, a batch dropped or a group walking other data.
func checkMeshMatchesCore(t *testing.T, tol float64, spec *nn.Spec, train, val *dataset.Dataset, cfg DistConfig) {
	t.Helper()
	socs := cfg.Plan.NumSoCs
	dist, err := RunDistributed(context.Background(), transport.NewChanMesh(socs), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := &core.Job{
		Spec: spec, Train: train, Val: val, PaperSamples: train.Len(),
		GlobalBatch: cfg.GlobalBatch, LR: cfg.LR, Momentum: cfg.Momentum,
		Epochs: cfg.Epochs, Seed: cfg.Seed,
	}
	want, err := (&core.SoCFlow{NumGroups: cfg.Plan.Groups(), Mixed: core.MixedOff}).Run(context.Background(), job, cluster.New(cluster.Config{NumSoCs: socs}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.EpochAccuracies, want.EpochAccuracies) {
		t.Fatalf("epoch accuracies diverged: mesh %v vs core %v", dist.EpochAccuracies, want.EpochAccuracies)
	}
	dw := dist.Final.Weights()
	if len(dw) != len(want.FinalWeights) {
		t.Fatalf("weight sets differ: %d vs %d", len(dw), len(want.FinalWeights))
	}
	for ti := range dw {
		for j := range dw[ti].Data {
			if d := math.Abs(float64(dw[ti].Data[j] - want.FinalWeights[ti].Data[j])); !(d <= tol) {
				t.Fatalf("mesh and core.SoCFlow diverged: weight %d[%d] differs by %v, tolerance %v", ti, j, d, tol)
			}
		}
	}
}

// The distributed goroutine/message-passing execution of a data plan
// must agree with core.SoCFlow on the same job. VGG micro (no batch
// norm) makes the member split exact up to rounding, so the comparison
// is tight: any error in chunk indexing, framing, or aggregation order
// shows up here.
func TestDistributedMatchesSerialLift(t *testing.T) {
	prof := dataset.MustProfile("cifar10")
	pool := prof.Generate(dataset.GenOptions{Samples: 240, Seed: 5})
	train, val := pool.Split(0.8)
	checkMeshMatchesCore(t, 1e-5, nn.MustSpec("vgg11"), train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 3, GlobalBatch: 16, LR: 0.02, Momentum: 0.9, Seed: 12},
		Plan:    dataPlan(8, 16, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}),
	})
}

// Regression for the global-batch truncation bug: with a group size
// that does not divide BS_g (5 members, batch 16) the runtime used to
// train on floor(16/5)*5 = 15 samples per iteration. core.SoCFlow
// consumes the full batch, so matching it proves the remainder is now
// trained, not dropped.
func TestDistributedRaggedGroupMatchesSerialLift(t *testing.T) {
	prof := dataset.MustProfile("fmnist")
	pool := prof.Generate(dataset.GenOptions{Samples: 200, Seed: 3})
	train, val := pool.Split(0.8)
	checkMeshMatchesCore(t, 1e-5, nn.MustSpec("lenet5"), train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 16, LR: 0.02, Momentum: 0.9, Seed: 8},
		Plan:    dataPlan(8, 16, [][]int{{0, 1, 2, 3, 4}, {5, 6, 7}}),
	})
}

// Shards of 48 and 49 samples take 3 and 4 batches at batch 16. The
// schedule's step count is group 0's for every group, on the mesh as in
// core; a worker that walked its own shard's count would train group 1
// one batch more per epoch than core.SoCFlow does.
func TestDistributedUnevenShardsMatchCore(t *testing.T) {
	prof := dataset.MustProfile("fmnist")
	pool := prof.Generate(dataset.GenOptions{Samples: 122, Seed: 6})
	train, val := pool.Split(0.8)
	if train.Len() != 97 {
		t.Fatalf("train set holds %d samples, want 97 (shards of 48 and 49)", train.Len())
	}
	checkMeshMatchesCore(t, 1e-5, nn.MustSpec("lenet5"), train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 3, GlobalBatch: 16, LR: 0.02, Momentum: 0.9, Seed: 10},
		Plan:    dataPlan(6, 16, [][]int{{0, 1, 2}, {3, 4, 5}}),
	})
}

// With one member per group nothing is split and a two-way average has
// one float order, so the mesh and core.SoCFlow agree bit for bit.
func TestDistributedSingletonGroupsMatchCoreBitwise(t *testing.T) {
	prof := dataset.MustProfile("fmnist")
	pool := prof.Generate(dataset.GenOptions{Samples: 160, Seed: 2})
	train, val := pool.Split(0.8)
	checkMeshMatchesCore(t, 0, nn.MustSpec("lenet5"), train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 3, GlobalBatch: 16, LR: 0.02, Momentum: 0.9, Seed: 5},
		Plan:    dataPlan(2, 16, [][]int{{0}, {1}}),
	})
}
