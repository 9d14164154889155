package runtime

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/transport"
)

// fastRecovery returns recovery knobs tuned for in-process tests:
// quick beats, quick detection, quick retries.
func fastRecovery() *RecoveryConfig {
	// The timeout leaves ~50 missed beats of margin: under -race with
	// every worker building its model at once, goroutines can starve
	// for tens of milliseconds, and a tight timeout mass-declares the
	// whole cluster dead.
	return &RecoveryConfig{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		MaxRetries:        3,
		RetryBackoff:      5 * time.Millisecond,
	}
}

func elasticFixture(t *testing.T, samples int) (*nn.Spec, *dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	prof := dataset.MustProfile("celeba")
	pool := prof.Generate(dataset.GenOptions{Samples: samples, Seed: 9})
	train, val := pool.Split(0.8)
	return nn.MustSpec("lenet5"), train, val
}

// The elastic track must be a behavioural superset: with no faults the
// barrier-delimited rounds run the identical schedule, so per-epoch
// accuracies match the plain path bit for bit.
func TestElasticFaultFreeMatchesPlain(t *testing.T) {
	spec, train, val := elasticFixture(t, 240)
	base := DistConfig{
		JobSpec: core.JobSpec{Epochs: 3, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(4, 16, [][]int{{0, 1}, {2, 3}}),
	}

	plain, err := RunDistributed(context.Background(), transport.NewChanMesh(4), spec, train, val, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Recovery = fastRecovery()
	elastic, err := RunDistributed(context.Background(), transport.NewChanMesh(4), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := range plain.EpochAccuracies {
		if plain.EpochAccuracies[e] != elastic.EpochAccuracies[e] {
			t.Fatalf("epoch %d: plain %v vs elastic %v", e, plain.EpochAccuracies[e], elastic.EpochAccuracies[e])
		}
	}
	if elastic.Recovery == nil {
		t.Fatal("elastic result must carry recovery stats")
	}
	if s := elastic.Recovery; s.Detections != 0 || s.Retries != 0 || s.Rejoins != 0 {
		t.Fatalf("fault-free run recorded recovery activity: %+v", s)
	}
}

// A permanent mid-training crash is *detected* (no plan consultation by
// survivors), the epoch retries from the last snapshot, and the run
// completes on the shrunken membership with useful accuracy.
func TestElasticDetectsCrashAndRetries(t *testing.T) {
	spec, train, val := elasticFixture(t, 300)
	cfg := DistConfig{
		JobSpec: core.JobSpec{Epochs: 5, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(6, 16, [][]int{{0, 1, 2}, {3, 4, 5}}),
		Faults: &transport.FaultPlan{Events: []transport.FaultEvent{
			{Kind: transport.FaultCrash, Node: 4, Epoch: 1, Iter: 1},
		}},
		Recovery: fastRecovery(),
	}
	res, err := RunDistributed(context.Background(), transport.NewChanMesh(6), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Recovery
	if s == nil || s.Detections < 1 {
		t.Fatalf("crash went undetected: %+v", s)
	}
	if s.Retries < 1 {
		t.Fatalf("failed epoch was not retried: %+v", s)
	}
	if s.Rejoins != 0 {
		t.Fatalf("unexpected rejoins: %+v", s)
	}
	best := 0.0
	for _, a := range res.EpochAccuracies {
		if a > best {
			best = a
		}
	}
	if best < 0.75 {
		t.Fatalf("degraded elastic run reached only %v", best)
	}
}

// A bounded preemption window plus a scheduled return: the node is
// detected dead, the run degrades, and at the scheduled epoch boundary
// the node is re-admitted with a leader-served state transfer. Accuracy
// must end within reach of a fault-free run of the same config.
func TestElasticRejoinRestoresMembership(t *testing.T) {
	spec, train, val := elasticFixture(t, 300)
	base := DistConfig{
		JobSpec: core.JobSpec{Epochs: 5, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(6, 16, [][]int{{0, 1, 2}, {3, 4, 5}}),
	}

	clean := base
	clean.Recovery = fastRecovery()
	cleanRes, err := RunDistributed(context.Background(), transport.NewChanMesh(6), spec, train, val, clean)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Faults = &transport.FaultPlan{Events: []transport.FaultEvent{
		{Kind: transport.FaultCrash, Node: 4, Epoch: 1, Iter: 0, UntilEpoch: 3, UntilIter: 0},
	}}
	cfg.Recovery = fastRecovery()
	cfg.Recovery.Rejoins = []Rejoin{{Node: 4, Epoch: 3}}
	res, err := RunDistributed(context.Background(), transport.NewChanMesh(6), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Recovery
	if s == nil {
		t.Fatal("missing recovery stats")
	}
	if s.Detections < 1 || s.Rejoins != 1 {
		t.Fatalf("want >=1 detection and exactly 1 rejoin, got %+v", s)
	}
	if s.MembershipEpoch < 2 {
		t.Fatalf("membership epoch must count the departure and the return, got %+v", s)
	}
	if s.StateTransferBytes <= 0 {
		t.Fatalf("rejoin must ship state, got %+v", s)
	}
	finalClean := cleanRes.EpochAccuracies[len(cleanRes.EpochAccuracies)-1]
	finalElastic := res.EpochAccuracies[len(res.EpochAccuracies)-1]
	if math.Abs(finalClean-finalElastic) > 0.02+1e-9 {
		t.Fatalf("final accuracy %v drifted more than 2 points from fault-free %v", finalElastic, finalClean)
	}
}

// Crashes on every attempt of the same epoch exhaust the retry budget
// and surface a joined, worker-named fatal error.
func TestElasticRetryBudgetExhausted(t *testing.T) {
	spec, train, val := elasticFixture(t, 240)
	rc := fastRecovery()
	rc.MaxRetries = 1
	cfg := DistConfig{
		JobSpec: core.JobSpec{Epochs: 4, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(4, 16, [][]int{{0, 1, 2, 3}}),
		Faults: &transport.FaultPlan{Events: []transport.FaultEvent{
			// Node 1 kills attempt 0 at the first iteration; its
			// groupmates block in the ring, so node 2 only reaches its
			// own crash point on the retry — which busts MaxRetries=1.
			{Kind: transport.FaultCrash, Node: 1, Epoch: 1, Iter: 0},
			{Kind: transport.FaultCrash, Node: 2, Epoch: 1, Iter: 3},
		}},
		Recovery: rc,
	}
	_, err := RunDistributed(context.Background(), transport.NewChanMesh(4), spec, train, val, cfg)
	if err == nil {
		t.Fatal("exhausted retry budget must fail the run")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("error must name the exhausted budget, got: %v", err)
	}
	if !strings.Contains(err.Error(), "worker ") {
		t.Fatalf("error must name workers, got: %v", err)
	}
}

// Cancelling the context mid-run tears the elastic machinery down: the
// manager stops, the mesh closes, and RunDistributed returns ctx.Err().
func TestElasticContextCancel(t *testing.T) {
	spec, train, val := elasticFixture(t, 240)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := DistConfig{
		JobSpec:  core.JobSpec{Epochs: 500, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:     dataPlan(4, 16, [][]int{{0, 1}, {2, 3}}),
		Recovery: fastRecovery(),
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunDistributed(ctx, transport.NewChanMesh(4), spec, train, val, cfg)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("elastic run did not unwind on cancellation")
	}
}
