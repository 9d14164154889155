package exp

import (
	"context"
	"fmt"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/plan"
	"socflow/internal/runtime"
	"socflow/internal/transport"
)

// ExpFaults measures the distributed runtime's failure-domain story:
// accuracy and completion under 0/1/2 injected SoC crashes with
// group-level degradation (survivors re-split the batch and
// re-normalize the gradient average), plus a tidal row whose crash
// schedule comes from the co-location trace — SoCs reclaimed by user
// traffic mid-session. The paper motivates this (§2.2: training runs
// on borrowed, preemptible chips) but only evaluates fault-free runs.
func ExpFaults(o Options) (*Table, error) {
	o = o.withDefaults()
	// One goroutine per SoC plus its links: keep the mesh laptop-sized.
	const socs, groups = 8, 2
	epochs := o.Epochs
	if epochs > 8 {
		epochs = 8
	}

	prof, err := dataset.GetProfile("fmnist")
	if err != nil {
		return nil, err
	}
	pool := prof.Generate(dataset.GenOptions{Samples: o.TrainSamples + o.ValSamples, Seed: o.Seed})
	train, val := pool.Split(float64(o.TrainSamples) / float64(pool.Len()))
	spec := nn.MustSpec("lenet5")
	grps := plan.IntegrityGreedyMap(plan.AllNodes(socs), groups, cluster.SoCsPerPCBDefault).Groups

	t := &Table{
		Title:  fmt.Sprintf("Faults — LeNet5/FMNIST on %d SoCs (%d groups), degradation on", socs, groups),
		Header: []string{"plan", "crashes", "survivors", "best_acc", "final_acc", "delta_pts", "wall_s"},
		Notes: []string{
			"extension experiment: scripted SoC crashes against the real distributed runtime (transport.FaultPlan)",
			"delta_pts is best accuracy relative to the fault-free run; survivors re-split the batch, so the loss stays small",
			"tidal row: crash schedule sampled from the co-location trace (session drifting out of the nightly trough)",
		},
	}

	type row struct {
		label string
		plan  *transport.FaultPlan
	}
	rows := []row{
		{"none", nil},
		{"1 crash", transport.RandomCrashPlan(o.Seed+11, socs, epochs, 1)},
		{"2 crashes", transport.RandomCrashPlan(o.Seed+11, socs, epochs, 2)},
	}
	// Tidal schedule: a session starting at the trough's edge loses
	// SoCs as the morning traffic returns. The degraded track cannot
	// re-admit a node (that is the elastic experiment's job), so each
	// SoC's first episode becomes a permanent crash, and the kill count
	// is capped so the run always keeps a survivor.
	tidal := &transport.FaultPlan{}
	crashed := map[int]bool{}
	for _, ev := range cluster.DefaultTidalTrace().PreemptionEvents(socs, epochs, 6.5, 0.5, o.Seed+13) {
		if crashed[ev.SoC] {
			continue
		}
		if tidal.Crashes() >= socs-1 {
			break
		}
		crashed[ev.SoC] = true
		tidal.Events = append(tidal.Events, transport.FaultEvent{Kind: transport.FaultCrash, Node: ev.SoC, Epoch: ev.Epoch})
	}
	rows = append(rows, row{"tidal", tidal})

	cleanBest := 0.0
	for _, r := range rows {
		cfg := runtime.DistConfig{
			JobSpec:        core.JobSpec{Epochs: epochs, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: o.Seed},
			Groups:         grps,
			Faults:         r.plan,
			DegradeOnFault: true,
		}
		start := time.Now()
		res, err := runtime.RunDistributed(context.Background(), transport.NewChanMesh(socs), spec, train, val, cfg)
		if err != nil {
			return nil, fmt.Errorf("exp faults %q: %w", r.label, err)
		}
		wall := time.Since(start).Seconds()
		best := 0.0
		for _, a := range res.EpochAccuracies {
			if a > best {
				best = a
			}
		}
		if r.plan == nil {
			cleanBest = best
		}
		t.AddRow(r.label, r.plan.Crashes(), socs-r.plan.Crashes(),
			100*best, 100*res.EpochAccuracies[epochs-1], 100*(best-cleanBest), wall)
	}
	return t, nil
}
