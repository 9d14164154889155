package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"socflow/internal/baselines"
	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/exp"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/tensor"
)

// scenarioJob is a core scenario's job at the exp-grid workload's size
// (at least 24 training samples per class, 2 epochs, 8 groups' batch).
func scenarioJob(sc exp.Scenario, epochs int) *core.Job {
	prof := dataset.MustProfile(sc.Dataset)
	trainN, valN := 24*prof.Classes, 4*prof.Classes
	train, val := prof.Generate(dataset.GenOptions{Samples: trainN + valN, Seed: 1}).Split(float64(trainN) / float64(trainN+valN))
	return &core.Job{Spec: nn.MustSpec(sc.Model), Train: train, Val: val, PaperSamples: prof.PaperTrainN,
		GlobalBatch: max(4, min(sc.GlobalBatch, trainN/(15*8))), PaperBatch: sc.GlobalBatch,
		LR: 0.02, Momentum: 0.9, Epochs: epochs, Seed: 1}
}

// gridStrategies is one grid row: the Local reference, SoCFlow and the
// six baselines, built fresh (HiPress's compressor carries state).
func gridStrategies() []core.Strategy {
	local := &core.SyncSGD{StrategyName: "Local", SyncTime: func(*cluster.Cluster, *nn.Spec) float64 { return 0 }}
	return append([]core.Strategy{local, &core.SoCFlow{NumGroups: 8}}, baselines.All()...)
}

// runSolo runs each strategy through its own Run on one cluster.
func runSolo(t *testing.T, job *core.Job, strats []core.Strategy) []*core.Result {
	t.Helper()
	clu := cluster.New(cluster.Config{NumSoCs: 32})
	out := make([]*core.Result, len(strats))
	for i, s := range strats {
		res, err := s.Run(context.Background(), job, clu)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		out[i] = res
	}
	return out
}

// runShared runs the strategies through one RunStrategies call.
func runShared(t *testing.T, job *core.Job, strats []core.Strategy) []*core.Result {
	t.Helper()
	out, err := core.RunStrategies(context.Background(), job, cluster.New(cluster.Config{NumSoCs: 32}), strats)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameTensorBits(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if math.Float32bits(a[i].Data[j]) != math.Float32bits(b[i].Data[j]) {
				return false
			}
		}
	}
	return true
}

// checkSame fails unless got equals want field by field, every float
// and tensor bit for bit.
func checkSame(t *testing.T, label string, got, want []*core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		scalars := func(r *core.Result) []float64 {
			return []float64{r.FinalAccuracy, r.BestAccuracy, r.SimSeconds, r.EnergyJ, r.SimSecondsToTarget,
				r.Breakdown.Compute, r.Breakdown.Sync, r.Breakdown.Update}
		}
		ints := func(r *core.Result) string {
			return fmt.Sprintf("%s epochs=%d target@%d retries=%d preempt=%d parked=%v",
				r.Strategy, len(r.EpochAccuracies), r.EpochsToTarget, r.EpochRetries, r.Preemptions, r.Parked)
		}
		switch {
		case ints(g) != ints(w):
			t.Errorf("%s: shared %s, solo %s", label, ints(g), ints(w))
		case !sameBits(scalars(g), scalars(w)):
			t.Errorf("%s %s: shared %v, solo %v (acc, best, sim, energy, sim@target, breakdown)", label, w.Strategy, scalars(g), scalars(w))
		case !sameBits(g.EpochAccuracies, w.EpochAccuracies) || !sameBits(g.EpochSimSeconds, w.EpochSimSeconds):
			t.Errorf("%s %s: shared epochs %v / %v s, solo %v / %v s", label, w.Strategy,
				g.EpochAccuracies, g.EpochSimSeconds, w.EpochAccuracies, w.EpochSimSeconds)
		case !sameTensorBits(g.FinalWeights, w.FinalWeights) || !sameTensorBits(g.FinalState, w.FinalState):
			t.Errorf("%s %s: final tensors differ from the solo run's", label, w.Strategy)
		}
	}
}

// RunStrategies trains each distinct training once, yet every member's
// result is its own Run's, bit for bit, through every lifecycle path of
// the epoch driver.
func TestSharedRunsMatchSolo(t *testing.T) {
	for _, sc := range exp.CoreScenarios() {
		job := scenarioJob(sc, 2)
		checkSame(t, sc.Label, runShared(t, job, gridStrategies()), runSolo(t, job, gridStrategies()))
	}

	lenet := exp.CoreScenarios()[2]
	t.Run("TargetEarlyStop", func(t *testing.T) {
		job := scenarioJob(lenet, 4)
		ref := runSolo(t, job, gridStrategies()[:1])[0]
		job.TargetAccuracy = ref.EpochAccuracies[1] // Local reaches it by epoch 2 of 4
		solo := runSolo(t, job, gridStrategies())
		if solo[0].EpochsToTarget == 0 || len(solo[0].EpochAccuracies) == 4 {
			t.Fatalf("Local did not stop early: %+v", solo[0].EpochAccuracies)
		}
		checkSame(t, "early stop", runShared(t, job, gridStrategies()), solo)
	})

	t.Run("EpochFaultRetried", func(t *testing.T) {
		job := scenarioJob(lenet, 3)
		job.MaxEpochRetries = 2
		job.EpochFault = func(epoch, attempt int) error {
			if epoch == 1 && attempt == 0 {
				return errors.New("injected")
			}
			return nil
		}
		solo := runSolo(t, job, gridStrategies())
		if solo[0].EpochRetries != 1 {
			t.Fatalf("Local retried %d epochs, want 1", solo[0].EpochRetries)
		}
		checkSame(t, "retry", runShared(t, job, gridStrategies()), solo)
	})

	t.Run("Resume", func(t *testing.T) {
		first := runSolo(t, scenarioJob(lenet, 1), gridStrategies()[:1])[0]
		job := scenarioJob(lenet, 3)
		job.StartEpoch = 1
		job.Resume = &core.Checkpoint{Epoch: 1, Weights: first.FinalWeights, State: first.FinalState}
		checkSame(t, "resume", runShared(t, job, gridStrategies()), runSolo(t, job, gridStrategies()))
	})

	t.Run("FedClientsDiffer", func(t *testing.T) {
		fed := func() []core.Strategy {
			agg := func(*cluster.Cluster, *nn.Spec) float64 { return 1 }
			return []core.Strategy{
				&core.FedSGD{StrategyName: "FedAvg-4", AggTime: agg, Clients: 4},
				&core.FedSGD{StrategyName: "FedAvg-8", AggTime: agg, Clients: 8},
			}
		}
		job := scenarioJob(lenet, 2)
		solo := runSolo(t, job, fed())
		if sameTensorBits(solo[0].FinalWeights, solo[1].FinalWeights) {
			t.Fatal("4 and 8 clients trained the same weights; the case shows nothing")
		}
		checkSame(t, "clients", runShared(t, job, fed()), solo)
	})

	t.Run("OwnFinalWeights", func(t *testing.T) {
		res := runShared(t, scenarioJob(lenet, 1), gridStrategies())
		ps, ring := res[2], res[3] // PS and RING share Local's training
		want := ring.FinalWeights[0].Data[0]
		ps.FinalWeights[0].Data[0] = want + 1
		if got := ring.FinalWeights[0].Data[0]; got != want {
			t.Fatalf("writing PS's final weights moved RING's: %v -> %v", want, got)
		}
		if res[0].FinalWeights[0] == ps.FinalWeights[0] {
			t.Fatal("Local and PS hold the same final tensor")
		}
	})

	t.Run("Registry", func(t *testing.T) {
		run := func(shared bool) *metrics.RunReport {
			job := scenarioJob(lenet, 2)
			reg := metrics.New()
			job.Metrics = reg
			job.Kernels = core.BeginKernelHarvest(reg)
			if shared {
				runShared(t, job, gridStrategies())
			} else {
				runSolo(t, job, gridStrategies())
			}
			job.Kernels.Finish()
			return reg.Snapshot()
		}
		solo, a, b := run(false), run(true), run(true)
		for _, name := range []string{"sim.runs", "train.epochs"} {
			if a.Counters[name] != solo.Counters[name] {
				t.Errorf("%s = %d shared, %d solo", name, a.Counters[name], solo.Counters[name])
			}
		}
		for _, name := range []string{"tensor.gemm.ops", "nn.conv.forward", "nn.dense.forward"} {
			if a.Counters[name] != b.Counters[name] {
				t.Errorf("%s: %d in one call, %d in the next", name, a.Counters[name], b.Counters[name])
			}
		}
		if a.Counters["nn.dense.forward"] >= solo.Counters["nn.dense.forward"] {
			t.Errorf("shared call ran %d dense forwards, solo runs %d: nothing was shared",
				a.Counters["nn.dense.forward"], solo.Counters["nn.dense.forward"])
		}
	})
}
