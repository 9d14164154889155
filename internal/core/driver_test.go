package core

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/nn"
	"socflow/internal/tensor"
)

// driverRow is one strategy behind the epoch driver. Strategies are
// built fresh per run, as the facade builds them per segment.
// resumeLossy marks a strategy whose optimizer carries state beyond
// momentum (error-feedback residuals) that, like momentum, restarts on
// resume — so only the retry half applies to it.
type driverRow struct {
	name        string
	mk          func() Strategy
	job         func(epochs int) *Job
	clu         func() *cluster.Cluster
	resumeLossy bool
}

func driverRows(t *testing.T) []driverRow {
	noSync := func(*cluster.Cluster, *nn.Spec) float64 { return 1 }
	small := func(epochs int) *Job { return testJob(t, 240, epochs) }
	plan := searchedPlan(t, 16, 2)
	return []driverRow{
		{"SoCFlow", func() Strategy { return &SoCFlow{NumGroups: 4, Mixed: MixedOff} }, small, clu32, false},
		{"Pipeline", func() Strategy { return &Pipeline{Plan: plan} },
			func(epochs int) *Job { return pipelineJob(t, epochs) }, func() *cluster.Cluster { return cluN(16) }, false},
		{"SyncSGD", func() Strategy { return &SyncSGD{StrategyName: "RING", SyncTime: noSync} }, small, clu32, false},
		{"SyncSGD+TopK", func() Strategy {
			return &SyncSGD{StrategyName: "HiPress", SyncTime: noSync, Compressor: collective.NewTopKCompressor(0.05)}
		}, small, clu32, true},
		{"FedSGD", func() Strategy { return &FedSGD{StrategyName: "FedAvg", AggTime: noSync, Clients: 8} }, small, clu32, false},
	}
}

func sameTensors(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// Every strategy honours the park/resume and auto-checkpoint fields of
// Job: a run parked after epoch 2 and resumed from its final tensors
// finishes bit-identically to one that was never interrupted (momentum
// restarts on resume by design, hence 0), and the store receives the
// stride plus the final epoch under KeepLast retention.
func TestDriverParkResumeAndCheckpoint(t *testing.T) {
	for _, row := range driverRows(t) {
		if row.resumeLossy {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			store, err := NewCheckpointStore(filepath.Join(t.TempDir(), "auto"))
			if err != nil {
				t.Fatal(err)
			}
			store.KeepLast = 2
			job := row.job(4)
			job.Momentum = 0
			job.Checkpoints, job.CheckpointEvery = store, 3
			base, err := row.mk().Run(ctx, job, row.clu())
			if err != nil {
				t.Fatal(err)
			}
			// Stride 3 over 4 epochs saves after epochs 3 and 4 (final).
			names, err := store.list()
			if err != nil || len(names) != 2 {
				t.Fatalf("store holds %v (%v), want 2 checkpoints", names, err)
			}
			cp, err := store.Latest()
			if err != nil || cp.Epoch != 4 || !sameTensors(cp.Weights, base.FinalWeights) {
				t.Fatalf("latest auto-checkpoint is not the final model: %+v, %v", cp, err)
			}

			first := row.job(4)
			first.Momentum = 0
			done := 0
			first.EpochEnd = func(int, float64, float64) { done++ }
			first.ShouldPark = func() bool { return done == 2 }
			head, err := row.mk().Run(ctx, first, row.clu())
			if err != nil {
				t.Fatal(err)
			}
			if !head.Parked || len(head.EpochAccuracies) != 2 {
				t.Fatalf("run did not park after epoch 2: parked=%v epochs=%d", head.Parked, len(head.EpochAccuracies))
			}
			second := row.job(4)
			second.Momentum = 0
			second.StartEpoch = 2
			second.Resume = &Checkpoint{Epoch: 2, Weights: head.FinalWeights, State: head.FinalState}
			tail, err := row.mk().Run(ctx, second, row.clu())
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 4; e++ {
				got := append(head.EpochAccuracies, tail.EpochAccuracies...)[e]
				if got != base.EpochAccuracies[e] {
					t.Fatalf("epoch %d accuracy %v, uninterrupted %v", e, got, base.EpochAccuracies[e])
				}
			}
			if !sameTensors(tail.FinalWeights, base.FinalWeights) || !sameTensors(tail.FinalState, base.FinalState) {
				t.Fatal("resumed run's final tensors differ from the uninterrupted run's")
			}
		})
	}
}

// Every strategy honours the retry fields of Job: an injected failure
// of epoch 1's first attempt is rolled back (weights, layer state,
// momentum, error-feedback residuals) and replayed on the identical
// batches, so the run ends bit-identical to a fault-free one — having
// paid the failed attempt's simulated time; with no budget the error
// names the epoch.
func TestDriverRetriesFailedEpoch(t *testing.T) {
	for _, row := range driverRows(t) {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			fault := func(epoch, attempt int) error {
				if epoch == 1 && attempt == 0 {
					return errors.New("window preempted")
				}
				return nil
			}
			job := row.job(3)
			job.MaxEpochRetries = 1
			clean, err := row.mk().Run(ctx, job, row.clu())
			if err != nil {
				t.Fatal(err)
			}

			job = row.job(3)
			job.MaxEpochRetries = 1
			job.EpochFault = fault
			res, err := row.mk().Run(ctx, job, row.clu())
			if err != nil {
				t.Fatal(err)
			}
			if res.EpochRetries != 1 {
				t.Fatalf("EpochRetries = %d, want 1", res.EpochRetries)
			}
			if len(res.EpochAccuracies) != 3 {
				t.Fatalf("retried run produced %d epochs", len(res.EpochAccuracies))
			}
			for e, want := range clean.EpochAccuracies {
				if res.EpochAccuracies[e] != want {
					t.Fatalf("epoch %d accuracy diverged after retry: %v vs clean %v", e, res.EpochAccuracies[e], want)
				}
			}
			if !sameTensors(res.FinalWeights, clean.FinalWeights) || !sameTensors(res.FinalState, clean.FinalState) {
				t.Fatal("retried run's final tensors differ from the fault-free run's")
			}
			if res.SimSeconds <= clean.SimSeconds {
				t.Fatalf("the failed attempt's simulated time must still be paid: %v <= %v", res.SimSeconds, clean.SimSeconds)
			}

			job = row.job(3)
			job.EpochFault = fault
			_, err = row.mk().Run(ctx, job, row.clu())
			if err == nil || !strings.Contains(err.Error(), "epoch 1 failed after 1 attempts") {
				t.Fatalf("with no retry budget the error must name the epoch and attempts, got: %v", err)
			}
		})
	}
}

// With MaxEpochRetries unset, retrying is disabled: the first epoch
// failure is immediately fatal rather than replayed.
func TestSoCFlowRetryDisabledByDefault(t *testing.T) {
	job := testJob(t, 240, 2)
	attempts := 0
	job.EpochFault = func(epoch, attempt int) error {
		if epoch == 0 {
			attempts++
			return errors.New("flake")
		}
		return nil
	}
	_, err := (&SoCFlow{NumGroups: 4, Mixed: MixedOff}).Run(context.Background(), job, clu32())
	if err == nil {
		t.Fatal("epoch failure with retries disabled must be fatal")
	}
	if attempts != 1 {
		t.Fatalf("epoch 0 was attempted %d times, want exactly 1 (no retry)", attempts)
	}
	if !strings.Contains(err.Error(), "epoch 0 failed after 1 attempts") {
		t.Fatalf("unexpected error: %v", err)
	}
}
