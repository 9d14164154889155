package exp

import (
	"context"

	"fmt"

	"socflow/internal/baselines"
	"socflow/internal/cluster"
	"socflow/internal/core"
	autoplan "socflow/internal/plan"
)

// The experiments in this file go beyond the paper's evaluation; they
// test claims the paper states but does not measure.

// ExpNonIID tests §3.1's claim that, "unlike federated learning,
// SoCFlow can shuffle the input data among different groups to
// guarantee high convergence accuracy": under increasingly skewed
// (Dirichlet) initial data placement, FedAvg — whose clients keep
// their shards — degrades, while SoCFlow's per-epoch cross-group
// reshuffle washes the skew out. A reshuffle-disabled SoCFlow variant
// isolates the mechanism.
func ExpNonIID(o Options) (*Table, error) {
	o = o.withDefaults()
	clu := cluster.New(cluster.Config{NumSoCs: o.NumSoCs})
	t := &Table{
		Title:  "Ext. 1 — Non-IID data placement: best accuracy (%) vs skew",
		Header: []string{"skew", "SoCFlow", "SoCFlow-noshuffle", "FedAvg"},
		Notes: []string{
			"extension experiment: the paper evaluates IID only; this measures its reshuffling claim (§3.1)",
			"Dirichlet alpha: inf = IID, 0.5 = moderate skew, 0.1 = heavy skew",
		},
	}
	sc := Scenario{Label: "VGG11", Model: "vgg11", Dataset: "cifar10", GlobalBatch: 64}
	type variant struct {
		name  string
		alpha float64
	}
	for _, v := range []variant{{"IID", 0}, {"alpha=0.5", 0.5}, {"alpha=0.1", 0.1}} {
		job := jobFor(sc, o)
		ours, err := (&core.SoCFlow{NumGroups: o.Groups, Mixed: core.MixedOff, DirichletAlpha: v.alpha}).Run(context.Background(), job, clu)
		if err != nil {
			return nil, err
		}
		frozen, err := (&core.SoCFlow{NumGroups: o.Groups, Mixed: core.MixedOff, DirichletAlpha: v.alpha, DisableReshuffle: true}).Run(context.Background(), job, clu)
		if err != nil {
			return nil, err
		}
		fed := baselines.NewFedAvg().(*core.FedSGD)
		fed.DirichletAlpha = v.alpha
		fr, err := fed.Run(context.Background(), job, clu)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, 100*ours.BestAccuracy, 100*frozen.BestAccuracy, 100*fr.BestAccuracy)
	}
	return t, nil
}

// ExpHeuristic validates the §3.1 warm-up heuristic end to end: the
// group count AutoGroupCount selects from first-epoch accuracy is
// compared against the count that actually maximizes a utility
// combining converged accuracy and epoch time (accuracy per unit
// time) measured by full runs.
func ExpHeuristic(model string, o Options) (*Table, error) {
	o = o.withDefaults()
	clu := cluster.New(cluster.Config{NumSoCs: o.NumSoCs})
	sc := Scenario{Label: model, Model: model, Dataset: "cifar10", GlobalBatch: 64}
	job := jobFor(sc, o)

	t := &Table{
		Title:  fmt.Sprintf("Ext. 2 — Group-size heuristic validation (%s)", model),
		Header: []string{"groups", "first_epoch_acc", "final_acc", "epoch_h", "selected"},
		Notes: []string{
			"extension experiment: the warm-up heuristic (first-epoch knee) vs full measurements",
		},
	}

	selected, err := core.AutoGroupCount(context.Background(), job, clu, o.NumSoCs, 0.5)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		if n > o.NumSoCs {
			break
		}
		res, err := (&core.SoCFlow{NumGroups: n, Mixed: core.MixedOff}).Run(context.Background(), job, clu)
		if err != nil {
			return nil, err
		}
		mark := ""
		if n == selected {
			mark = "<= heuristic pick"
		}
		t.AddRow(n, 100*res.EpochAccuracies[0], 100*res.BestAccuracy,
			res.MeanEpochSimSeconds()*float64(job.Spec.EpochsToConverge)/3600, mark)
	}
	return t, nil
}

// ExpUnderclocking measures §4.1's second optimization, which the
// paper describes but does not plot: under a thermal-throttling trace,
// underclocking-aware workload rebalancing shifts batch share away
// from hot SoCs so the group's SSGD step is not paced by its slowest
// member.
func ExpUnderclocking(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:  "Ext. 3 — Underclocking-aware rebalancing (VGG-11, 32 SoCs)",
		Header: []string{"throttle_prob", "naive_h", "rebalanced_h", "speedup"},
		Notes: []string{
			"extension experiment: §4.1 optimization 2 has no figure in the paper",
			"each throttled SoC runs at a uniform factor in [0.4, 1)",
		},
	}
	sc := Scenario{Label: "VGG11", Model: "vgg11", Dataset: "cifar10", GlobalBatch: 64}
	for _, prob := range []float64{0, 0.25, 0.5} {
		job := jobFor(sc, o)
		thermal := cluster.ThermalTrace(o.NumSoCs, job.Epochs, prob, 0.4, o.Seed+5)
		run := func(disable bool) (float64, error) {
			clu := cluster.New(cluster.Config{NumSoCs: o.NumSoCs})
			res, err := (&core.SoCFlow{NumGroups: o.Groups, Mixed: core.MixedOff,
				Thermal: thermal, DisableRebalance: disable}).Run(context.Background(), job, clu)
			if err != nil {
				return 0, err
			}
			return res.MeanEpochSimSeconds() * float64(job.Spec.EpochsToConverge) / 3600, nil
		}
		naive, err := run(true)
		if err != nil {
			return nil, err
		}
		balanced, err := run(false)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", 100*prob), naive, balanced, naive/balanced)
	}
	return t, nil
}

// ExpPreemption measures the co-location story end to end: training
// scheduled into the nightly idle window with user workloads sampled
// from the tidal trace, comparing SoCFlow's group-level preemption
// against pausing the whole job whenever any SoC is busy.
func ExpPreemption(o Options) (*Table, error) {
	o = o.withDefaults()
	clu := cluster.New(cluster.Config{NumSoCs: o.NumSoCs})
	t := &Table{
		Title:  "Ext. 4 — Co-location via group-level preemption (VGG-11, 32 SoCs)",
		Header: []string{"policy", "epochs_run", "preemptions", "best_acc_pct"},
		Notes: []string{
			"extension experiment: §3's preemption design has no figure in the paper",
			"whole-job pausing loses every epoch in which any group is busy; group-level preemption loses only the busy groups",
		},
	}
	sc := Scenario{Label: "VGG11", Model: "vgg11", Dataset: "cifar10", GlobalBatch: 64}
	job := jobFor(sc, o)

	trace := cluster.DefaultTidalTrace()
	start, _ := trace.IdleWindow(0.35)
	sched := trace.BusySchedule(o.NumSoCs, o.Seed+9)
	mapping := autoplan.IntegrityGreedyMap(autoplan.AllNodes(o.NumSoCs), o.Groups, clu.Config.SoCsPerPCB)
	plan := core.PlanFromTrace(mapping, sched, int(start), job.Epochs)

	// Group-level preemption (SoCFlow's policy).
	res, err := (&core.SoCFlow{NumGroups: o.Groups, Mixed: core.MixedOff, Preempt: plan}).Run(context.Background(), job, clu)
	if err != nil {
		return nil, err
	}
	t.AddRow("group-level", len(res.EpochAccuracies), res.Preemptions, 100*res.BestAccuracy)

	// Whole-job pausing: any preempted group pauses everyone, so those
	// epochs simply do not happen within the window.
	pausedEpochs := 0
	for e := 0; e < job.Epochs; e++ {
		if len(plan.ByEpoch[e]) > 0 {
			pausedEpochs++
		}
	}
	pausedJob := *job
	pausedJob.Epochs = job.Epochs - pausedEpochs
	if pausedJob.Epochs < 1 {
		pausedJob.Epochs = 1
	}
	paused, err := (&core.SoCFlow{NumGroups: o.Groups, Mixed: core.MixedOff}).Run(context.Background(), &pausedJob, clu)
	if err != nil {
		return nil, err
	}
	t.AddRow("whole-job pause", len(paused.EpochAccuracies), 0, 100*paused.BestAccuracy)
	return t, nil
}
