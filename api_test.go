package socflow

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"strings"
	"testing"
	"time"

	"socflow/internal/core"
	"socflow/internal/tensor"
)

// The options tune execution, never results: the same seeded job must
// produce bit-identical accuracies, simulated time, energy and final
// model at any parallelism level (DESIGN.md, "host parallelism vs.
// simulated concurrency"). The final weights and state are the last
// epoch's checkpoint: the lead replica's, exactly Result.FinalWeights
// and FinalState.
func TestParallelismInvariance(t *testing.T) {
	type outcome struct {
		rep *Report
		cp  *core.Checkpoint
	}
	run := func(width int) outcome {
		dir := t.TempDir()
		cfg := fastCfg("socflow")
		rep, err := Run(context.Background(), cfg, WithParallelism(width), WithCheckpointEvery(cfg.Epochs, dir))
		if err != nil {
			t.Fatal(err)
		}
		store, err := core.NewCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := store.Latest()
		if err != nil || cp == nil {
			t.Fatalf("width %d: final checkpoint %v, %v", width, cp, err)
		}
		return outcome{rep, cp}
	}
	seq := run(1)
	if len(seq.cp.Weights) == 0 {
		t.Fatal("final checkpoint holds no weights")
	}
	for _, width := range []int{2, 3, 8} {
		par := run(width)
		if len(seq.rep.EpochAccuracies) != len(par.rep.EpochAccuracies) {
			t.Fatalf("p=%d: epoch counts differ: %d vs %d", width, len(seq.rep.EpochAccuracies), len(par.rep.EpochAccuracies))
		}
		for e := range seq.rep.EpochAccuracies {
			if seq.rep.EpochAccuracies[e] != par.rep.EpochAccuracies[e] {
				t.Fatalf("epoch %d accuracy diverged: %v (p=1) vs %v (p=%d)",
					e, seq.rep.EpochAccuracies[e], par.rep.EpochAccuracies[e], width)
			}
		}
		if seq.rep.SimSeconds != par.rep.SimSeconds || seq.rep.FinalAccuracy != par.rep.FinalAccuracy ||
			seq.rep.EnergyKJ != par.rep.EnergyKJ {
			t.Fatalf("results not bit-identical at p=%d: %v/%v/%v vs %v/%v/%v", width,
				seq.rep.FinalAccuracy, seq.rep.SimSeconds, seq.rep.EnergyKJ,
				par.rep.FinalAccuracy, par.rep.SimSeconds, par.rep.EnergyKJ)
		}
		requireSameBits(t, fmt.Sprintf("p=%d final weights", width), seq.cp.Weights, par.cp.Weights)
		requireSameBits(t, fmt.Sprintf("p=%d final state", width), seq.cp.State, par.cp.State)
	}
}

// requireSameBits fails unless a and b hold the same tensors bit for bit.
func requireSameBits(t *testing.T, what string, a, b []*tensor.Tensor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d tensors", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("%s: tensor %d has %d vs %d elements", what, i, len(a[i].Data), len(b[i].Data))
		}
		for j, v := range a[i].Data {
			if math.Float32bits(v) != math.Float32bits(b[i].Data[j]) {
				t.Fatalf("%s: tensor %d element %d: %v vs %v", what, i, j, v, b[i].Data[j])
			}
		}
	}
}

// cancelAfterWriter cancels a context after n writes; wiring it as the
// trace writer cancels the run from inside the epoch boundary.
type cancelAfterWriter struct {
	n      int
	cancel context.CancelFunc
	buf    bytes.Buffer
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	w.n--
	if w.n <= 0 {
		w.cancel()
	}
	return len(p), nil
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{n: 1, cancel: cancel}

	cfg := fastCfg("socflow") // 6 epochs; we cancel after the first
	_, err := Run(ctx, cfg, WithTrace(w))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !strings.Contains(w.buf.String(), "epoch 1") {
		t.Fatalf("trace missing first epoch line: %q", w.buf.String())
	}
	if strings.Count(w.buf.String(), "epoch") > 2 {
		t.Fatalf("run kept training after cancel: %q", w.buf.String())
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, fastCfg("socflow")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunDistributedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{n: 1, cancel: cancel}

	_, err := RunDistributed(ctx, DistributedConfig{
		JobSpec:   JobSpec{Epochs: 6, TrainSamples: 300, ValSamples: 60},
		NumSoCs:   4,
		Groups:    2,
		InProcess: true,
	}, WithTrace(w))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// Injected crashes without recovery must fail fast (first-error
// teardown, not a deadlock) and name the failed worker; with recovery
// the heartbeat detector notices the crash and the same job completes
// on the survivors.
func TestRunDistributedFaultInjection(t *testing.T) {
	cfg := DistributedConfig{
		JobSpec:       JobSpec{Epochs: 3, TrainSamples: 240, ValSamples: 60},
		NumSoCs:       4,
		Groups:        2,
		InProcess:     true,
		InjectCrashes: 1,
	}
	if _, err := RunDistributed(context.Background(), cfg); err == nil {
		t.Fatal("injected crash without recovery must fail the run")
	} else if !strings.Contains(err.Error(), "worker") {
		t.Fatalf("error must name the failed worker: %v", err)
	}

	rep, err := RunDistributed(context.Background(), cfg,
		WithRecovery(3, 5*time.Millisecond), WithHeartbeat(5*time.Millisecond, 250*time.Millisecond))
	if err != nil {
		t.Fatalf("recovered run failed: %v", err)
	}
	if len(rep.EpochAccuracies) != 3 || rep.BestAccuracy <= 0 {
		t.Fatalf("recovered run incomplete: %+v", rep)
	}
	if rep.Recovery == nil || rep.Recovery.Detections < 1 {
		t.Fatalf("the crash must be detected, not read from the plan: %+v", rep.Recovery)
	}
}

// A crash count that leaves no survivor (or is negative) is knowable
// at submit: it must fail there, wrapping ErrBadOption, whether or not
// recovery is on — never train a few epochs and then run out of workers.
func TestRunDistributedRejectsUnsurvivableCrashes(t *testing.T) {
	recovery := []Option{WithRecovery(3, 5*time.Millisecond)}
	for _, tc := range []struct {
		name    string
		crashes int
		opts    []Option
	}{
		{"negative", -1, nil},
		{"every SoC", 4, nil},
		{"every SoC, recovery on", 4, recovery},
		{"more than the fleet, recovery on", 9, recovery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DistributedConfig{
				JobSpec:       JobSpec{Epochs: 3, TrainSamples: 240, ValSamples: 60},
				NumSoCs:       4,
				Groups:        2,
				InProcess:     true,
				InjectCrashes: tc.crashes,
			}
			h, err := defaultClient().SubmitDistributed(context.Background(), cfg, tc.opts...)
			if err == nil {
				h.Cancel(context.Background())
				t.Fatalf("InjectCrashes %d on 4 SoCs accepted at submit", tc.crashes)
			}
			if !errors.Is(err, ErrBadOption) || !strings.Contains(err.Error(), "InjectCrashes") {
				t.Fatalf("want errors.Is(ErrBadOption) naming InjectCrashes, got %v", err)
			}
		})
	}
}

func TestTraceAndLogger(t *testing.T) {
	var trace, logs bytes.Buffer
	cfg := fastCfg("socflow")
	cfg.Epochs = 2
	if _, err := Run(context.Background(), cfg,
		WithTrace(&trace), WithLogger(log.New(&logs, "", 0))); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(trace.String(), "epoch"); got != 2 {
		t.Fatalf("trace lines: %d, want 2 (%q)", got, trace.String())
	}
	if !strings.Contains(logs.String(), "run: SoCFlow") {
		t.Fatalf("logger missing run line: %q", logs.String())
	}
}
