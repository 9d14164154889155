package exp

import (
	"context"
	"fmt"
	"reflect"

	"socflow/internal/baselines"
	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/plan"
)

// ExpAutopar runs the auto-parallelization planner against data
// parallelism on a deep model across fleet sizes. The configuration is
// the planner's home turf — ResNet-34's 85 MB gradient payload with a
// small per-group batch, so grouped SSGD serializes on the NIC every
// iteration — and the point of the table is that the searched hybrid
// (pipeline stages inside each group, weights averaged once per epoch)
// beats both pure and grouped data parallelism on simulated epoch
// makespan, while the planner's predicted epoch equals the executed
// one. The hybrid runs twice per fleet size to demonstrate the
// pipeline track's bit-reproducibility.
func ExpAutopar(o Options) (*Table, error) {
	o = o.withDefaults()
	const model, ds, batch = "resnet34", "cifar10", 8
	spec := nn.MustSpec(model)
	prof := dataset.MustProfile(ds)
	t := &Table{
		Title: "Autopar — planner hybrid vs data parallelism (ResNet-34, BS_g=8)",
		Header: []string{"socs", "plan", "ring_epoch_s", "dp_epoch_s", "hybrid_epoch_s",
			"vs_ring", "vs_dp", "predicted_s"},
	}

	pool := prof.Generate(dataset.GenOptions{Samples: o.TrainSamples + o.ValSamples, Seed: o.Seed})
	train, val := pool.Split(float64(o.TrainSamples) / float64(pool.Len()))
	job := func() *core.Job {
		return &core.Job{
			Spec:         spec,
			Train:        train,
			Val:          val,
			PaperSamples: prof.PaperTrainN,
			GlobalBatch:  batch,
			PaperBatch:   batch,
			LR:           0.02,
			Momentum:     0.9,
			Epochs:       o.Epochs,
			Seed:         o.Seed,
			Metrics:      o.Metrics,
			Kernels:      o.Kernels,
		}
	}

	for _, m := range []int{8, 16, 32} {
		clu := cluster.New(cluster.Config{NumSoCs: m})
		groups := m / 8
		if groups < 1 {
			groups = 1
		}
		p, err := plan.Search(plan.Options{
			Spec:        spec,
			Cluster:     clu,
			MaxGroups:   groups,
			GlobalBatch: batch,
			Samples:     prof.PaperTrainN,
		})
		if err != nil {
			return nil, err
		}
		if p.Mode != plan.ModePipeline {
			t.Notes = append(t.Notes, fmt.Sprintf("%d SoCs: planner stayed data-parallel (%s)", m, p))
		}

		// Pure DP: one all-fleet ring, synchronized every iteration.
		ring, err := baselines.NewRing().Run(context.Background(), job(), clu)
		if err != nil {
			return nil, err
		}
		// Grouped DP: the paper's protocol at the planner's group budget,
		// FP32 so the comparison isolates the parallelization axis.
		dp, err := (&core.SoCFlow{NumGroups: groups, Mixed: core.MixedOff}).Run(context.Background(), job(), clu)
		if err != nil {
			return nil, err
		}
		// The searched hybrid, twice: equal seeds must match bit for bit.
		strat := func() core.Strategy {
			if p.Mode == plan.ModePipeline {
				return &core.Pipeline{Plan: p}
			}
			return &core.SoCFlow{NumGroups: p.Groups(), Mixed: core.MixedOff}
		}
		hybrid, err := strat().Run(context.Background(), job(), clu)
		if err != nil {
			return nil, err
		}
		again, err := strat().Run(context.Background(), job(), clu)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(hybrid.EpochAccuracies, again.EpochAccuracies) {
			return nil, fmt.Errorf("autopar: equal-seed hybrid runs diverged at %d SoCs", m)
		}

		ringE := ring.MeanEpochSimSeconds()
		dpE := dp.MeanEpochSimSeconds()
		hybE := hybrid.MeanEpochSimSeconds()
		t.AddRow(m, p.String(), ringE, dpE, hybE, ringE/hybE, dpE/hybE, p.EpochSeconds)
	}
	t.Notes = append(t.Notes,
		"ring: all-fleet Ring-AllReduce SSGD; dp: grouped SoCFlow (FP32) at the planner's group budget",
		"hybrid: the searched plan; predicted_s is the planner's epoch estimate (equals hybrid_epoch_s by construction)",
		"equal-seed hybrid runs verified bit-identical (epoch accuracy trajectories)")
	return t, nil
}
