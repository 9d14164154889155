package runtime

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/transport"
)

func faultFixture(t *testing.T, samples int) (*nn.Spec, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	prof := dataset.MustProfile("fmnist")
	pool := prof.Generate(dataset.GenOptions{Samples: samples, Seed: 9})
	train, val := pool.Split(0.8)
	return nn.MustSpec("lenet5"), train, val
}

// runDistWithDeadline guards against the pre-fix behavior — a worker
// error used to leave every peer blocked in Recv and wg.Wait() never
// returned — by failing loudly instead of hanging the suite.
func runDistWithDeadline(t *testing.T, mesh transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset, cfg DistConfig) (*DistResult, error) {
	t.Helper()
	type outcome struct {
		res *DistResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := RunDistributed(context.Background(), mesh, spec, train, val, cfg)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(2 * time.Minute):
		t.Fatal("RunDistributed deadlocked")
		return nil, nil
	}
}

// Regression for the RunDistributed deadlock: a worker that errors
// mid-epoch must tear down the mesh so every peer unwinds, and the
// joined error must name the failed worker.
func TestRunDistributedWorkerCrashTearsDownMesh(t *testing.T) {
	spec, train, val := faultFixture(t, 160)
	plan := &transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultCrash, Node: 3, Epoch: 0, Iter: 1},
	}}
	_, err := runDistWithDeadline(t, transport.NewChanMesh(8), spec, train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 3, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(8, 16, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}),
		Faults:  plan,
	})
	if err == nil {
		t.Fatal("a crashed worker must fail the run when recovery is off")
	}
	if !errors.Is(err, transport.ErrInjectedCrash) {
		t.Fatalf("error must carry the injected-crash cause: %v", err)
	}
	if !strings.Contains(err.Error(), "worker 3") {
		t.Fatalf("joined error must name the failed worker: %v", err)
	}
}

// The same teardown must work over real TCP links — the first error
// closes connections and every peer blocked mid-collective errors out.
func TestRunDistributedWorkerCrashTearsDownTCP(t *testing.T) {
	spec, train, val := faultFixture(t, 120)
	mesh, err := transport.NewTCPMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	plan := &transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultCrash, Node: 1, Epoch: 0, Iter: 0},
	}}
	_, err = runDistWithDeadline(t, mesh, spec, train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(4, 16, [][]int{{0, 1}, {2, 3}}),
		Faults:  plan,
	})
	if err == nil || !errors.Is(err, transport.ErrInjectedCrash) {
		t.Fatalf("TCP run = %v, want injected-crash failure", err)
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("joined error must name worker 1: %v", err)
	}
}

// An injected link drop must also unwind the whole run, not wedge it.
func TestRunDistributedLinkDropTearsDown(t *testing.T) {
	spec, train, val := faultFixture(t, 120)
	plan := &transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultLinkDrop, Node: 0, Peer: 1, Epoch: 0, Iter: 1},
	}}
	_, err := runDistWithDeadline(t, transport.NewChanMesh(4), spec, train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(4, 16, [][]int{{0, 1, 2, 3}}),
		Faults:  plan,
	})
	if err == nil || !errors.Is(err, transport.ErrInjectedLinkDrop) {
		t.Fatalf("run = %v, want injected link-drop failure", err)
	}
}

// With recovery on, crashes shrink groups instead of aborting: peers
// detect each crash by heartbeat, the broken epoch retries from its
// snapshot on the survivors, and per-epoch accuracies stay within 2
// points of the fault-free run (the survivors re-split the batch, so
// the group gradient is the same full-batch mean up to reduction order).
func TestRunDistributedDegradesWithinTwoPoints(t *testing.T) {
	spec, train, val := faultFixture(t, 360)
	cfg := DistConfig{
		JobSpec: core.JobSpec{Epochs: 6, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(8, 16, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}),
	}
	clean, err := runDistWithDeadline(t, transport.NewChanMesh(8), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for name, plan := range map[string]*transport.FaultPlan{
		// Node 0 is the global leader: its crash also exercises
		// leadership migration to the next survivor.
		"one crash": {Events: []transport.FaultEvent{
			{Kind: transport.FaultCrash, Node: 0, Epoch: 2, Iter: 1},
		}},
		"two crashes": {Events: []transport.FaultEvent{
			{Kind: transport.FaultCrash, Node: 0, Epoch: 2, Iter: 1},
			{Kind: transport.FaultCrash, Node: 5, Epoch: 3, Iter: 0},
		}},
	} {
		faulted := cfg
		faulted.Faults = plan
		faulted.Recovery = fastRecovery()
		res, err := runDistWithDeadline(t, transport.NewChanMesh(8), spec, train, val, faulted)
		if err != nil {
			t.Fatalf("%s: degraded run failed: %v", name, err)
		}
		if res.Final == nil || len(res.EpochAccuracies) != cfg.Epochs {
			t.Fatalf("%s: incomplete degraded result: %+v", name, res)
		}
		if s := res.Recovery; s == nil || s.Detections < plan.Crashes() {
			t.Fatalf("%s: %d crashes, but the detector saw %+v", name, plan.Crashes(), s)
		}
		for e := range res.EpochAccuracies {
			diff := math.Abs(res.EpochAccuracies[e] - clean.EpochAccuracies[e])
			if diff > 0.02 {
				t.Fatalf("%s: epoch %d accuracy %v vs fault-free %v (diff %v > 2 points)",
					name, e, res.EpochAccuracies[e], clean.EpochAccuracies[e], diff)
			}
		}
	}
}

// Recovery must survive a whole group dying: the leader ring shrinks
// to the surviving groups and the run still completes.
func TestRunDistributedDegradesWholeGroupLoss(t *testing.T) {
	spec, train, val := faultFixture(t, 200)
	plan := &transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultCrash, Node: 2, Epoch: 1, Iter: 0},
		{Kind: transport.FaultCrash, Node: 3, Epoch: 2, Iter: 0},
	}}
	res, err := runDistWithDeadline(t, transport.NewChanMesh(4), spec, train, val, DistConfig{
		JobSpec:  core.JobSpec{Epochs: 4, GlobalBatch: 12, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:     dataPlan(4, 12, [][]int{{0, 1}, {2, 3}}),
		Faults:   plan,
		Recovery: fastRecovery(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil {
		t.Fatal("survivor group must still produce a final model")
	}
	if s := res.Recovery; s == nil || s.Detections < 2 {
		t.Fatalf("both crashes must be detected, got %+v", s)
	}
}

// A plan that leaves no worker standing at some epoch's end cannot
// recover its way to a result; it must be rejected before any worker
// launches instead of training until the manager runs dry.
func TestRunDistributedDegradeNeedsSurvivor(t *testing.T) {
	spec, train, val := faultFixture(t, 80)
	pipe, err := autoplan.Search(autoplan.Options{
		Spec: spec, NumSoCs: 2, MaxGroups: 1, GlobalBatch: 8, Samples: train.Len(), Only: autoplan.ModePipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	allGone := []transport.FaultEvent{
		{Kind: transport.FaultCrash, Node: 0, Epoch: 0, Iter: 0},
		{Kind: transport.FaultCrash, Node: 1, Epoch: 1, Iter: 0},
	}
	for name, tc := range map[string]struct {
		plan   *autoplan.Plan
		epochs int
		events []transport.FaultEvent
	}{
		"all gone by the final epoch": {dataPlan(2, 8, [][]int{{0, 1}}), 2, allGone},
		// Both come back, but nobody is left to finish epoch 1.
		"all out at once mid-run": {dataPlan(2, 8, [][]int{{0, 1}}), 3, []transport.FaultEvent{
			{Kind: transport.FaultCrash, Node: 0, Epoch: 1, Iter: 0, UntilEpoch: 2},
			{Kind: transport.FaultCrash, Node: 1, Epoch: 1, Iter: 2, UntilEpoch: 2},
		}},
		"pipeline: all gone by the final epoch": {pipe, 2, allGone},
	} {
		rc := fastRecovery()
		rc.Rejoins = []Rejoin{{Node: 0, Epoch: 2}, {Node: 1, Epoch: 2}}
		_, err := RunDistributed(context.Background(), transport.NewChanMesh(2), spec, train, val, DistConfig{
			JobSpec:  core.JobSpec{Epochs: tc.epochs, GlobalBatch: 8, LR: 0.03, Seed: 4},
			Plan:     tc.plan,
			Faults:   &transport.FaultPlan{Events: tc.events},
			Recovery: rc,
			EpochEnd: func(epoch int, _ float64) {
				t.Errorf("%s: epoch %d trained under a plan with no survivor", name, epoch)
			},
		})
		if err == nil || !strings.Contains(err.Error(), "no survivor") {
			t.Fatalf("%s: got %v, want the no-survivor rejection", name, err)
		}
	}
}

// A transient straggler must delay but never derail the run, even on
// the plain track, where any failure is fatal.
func TestRunDistributedToleratesStraggler(t *testing.T) {
	spec, train, val := faultFixture(t, 120)
	plan := &transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultStraggle, Node: 1, Epoch: 0, Iter: 0, Delay: 20 * time.Millisecond},
	}}
	res, err := runDistWithDeadline(t, transport.NewChanMesh(4), spec, train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(4, 16, [][]int{{0, 1, 2, 3}}),
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil || len(res.EpochAccuracies) != 2 {
		t.Fatalf("straggler run incomplete: %+v", res)
	}
}
