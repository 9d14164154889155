package socflow

import (
	"context"
	"errors"
	"testing"
	"time"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
)

// pipeCfg is a small distributed config that forces the pipeline
// track: tiny fleet, celeba-profiled data (heavy per-sample pixels
// keep the planner away from data parallelism on lenet5).
func pipeCfg() DistributedConfig {
	return DistributedConfig{
		JobSpec: JobSpec{
			Model: "lenet5", Dataset: "celeba", Epochs: 3, GlobalBatch: 16,
			LR: 0.03, Momentum: 0.9, Seed: 4, TrainSamples: 192, ValSamples: 48,
		},
		NumSoCs:     6,
		Groups:      2,
		InProcess:   true,
		Parallelism: "pipeline",
	}
}

// pipeCfgPlan reproduces the exact plan a pipeCfg-shaped run will
// execute, so tests can target placed SoCs deterministically.
func pipeCfgPlan(t *testing.T, cfg DistributedConfig) *autoplan.Plan {
	t.Helper()
	cfg = cfg.withDefaults()
	prof := dataset.MustProfile(cfg.Dataset)
	pool := prof.Generate(dataset.GenOptions{Samples: cfg.TrainSamples + cfg.ValSamples, Seed: cfg.Seed})
	train, _ := pool.Split(float64(cfg.TrainSamples) / float64(pool.Len()))
	p, err := autoplan.Search(pipelinePlanOptions(cfg, nn.MustSpec(cfg.Model), train.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDistributedPipelineParallelism(t *testing.T) {
	cfg := pipeCfg()
	p := pipeCfgPlan(t, cfg)
	rep, err := RunDistributed(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EpochAccuracies) != cfg.Epochs {
		t.Fatalf("got %d epoch accuracies, want %d", len(rep.EpochAccuracies), cfg.Epochs)
	}
	if rep.BestAccuracy <= 0 {
		t.Fatalf("pipeline run never learned: best accuracy %v", rep.BestAccuracy)
	}
	// The report's topology is the plan's stage placement, not the
	// integrity-greedy group mapping.
	if len(rep.Topology) != p.Groups() || len(rep.Topology[0]) != p.Depth() {
		t.Fatalf("topology %v does not echo the %d-group depth-%d plan", rep.Topology, p.Groups(), p.Depth())
	}
	if rep.Recovery != nil {
		t.Fatalf("plain pipeline run grew a recovery report: %+v", rep.Recovery)
	}
}

// WithCheckpointEvery applies to RunDistributed on every track, plain
// ones included: the global leader writes the aggregated model at the
// stride and always at the final epoch.
func TestDistributedCheckpointEveryOnPlainTracks(t *testing.T) {
	for _, parallelism := range []string{"data", "pipeline"} {
		t.Run(parallelism, func(t *testing.T) {
			cfg := pipeCfg()
			cfg.Parallelism = parallelism
			dir := t.TempDir()
			rep, err := RunDistributed(context.Background(), cfg, WithCheckpointEvery(2, dir))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Recovery != nil {
				t.Fatalf("checkpointing switched the run onto the elastic track: %+v", rep.Recovery)
			}
			store, err := core.NewCheckpointStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := store.Latest()
			if err != nil || cp == nil {
				t.Fatalf("no auto-checkpoint persisted: %v", err)
			}
			if cp.Epoch != cfg.Epochs {
				t.Fatalf("latest auto-checkpoint epoch = %d, want %d", cp.Epoch, cfg.Epochs)
			}
		})
	}
}

// WithRecovery is valid for Parallelism "pipeline": a scripted
// preemption of a placed stage SoC is detected by heartbeat, the
// planner re-plans onto the survivors, and the report carries the
// episode with predicted == executed epoch seconds.
func TestDistributedPipelineRecoveryReplans(t *testing.T) {
	cfg := pipeCfg()
	cfg.Epochs = 4
	p := pipeCfgPlan(t, cfg)
	victim := p.Placement[p.Groups()-1][0]
	cfg.PreemptWindows = []PreemptWindow{{SoC: victim, Epoch: 1, Return: -1}}
	rep, err := RunDistributed(context.Background(), cfg,
		WithRecovery(3, 5*time.Millisecond),
		WithHeartbeat(5*time.Millisecond, 250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery == nil || rep.Recovery.Detections < 1 {
		t.Fatalf("preempted stage SoC went undetected: %+v", rep.Recovery)
	}
	if len(rep.Recovery.Replans) < 1 {
		t.Fatalf("membership change produced no replan episode: %+v", rep.Recovery)
	}
	for _, ep := range rep.Recovery.Replans {
		if ep.PredictedEpochSeconds != ep.ExecutedEpochSeconds {
			t.Fatalf("adopted plan predicted %.9fs but executed %.9fs: %+v",
				ep.PredictedEpochSeconds, ep.ExecutedEpochSeconds, ep)
		}
		if ep.OldPlan == "" || ep.NewPlan == "" {
			t.Fatalf("episode must name old and new plans: %+v", ep)
		}
	}
}

// A ResizeSchedule entry shrinks the fleet mid-campaign; the elastic
// manager re-plans onto the survivors and the run completes.
func TestDistributedPipelineResizeSchedule(t *testing.T) {
	cfg := pipeCfg()
	cfg.Epochs = 4
	cfg.ResizeSchedule = []ResizeEvent{{Epoch: 2, SoCs: 4}}
	rep, err := RunDistributed(context.Background(), cfg,
		WithRecovery(3, 5*time.Millisecond),
		WithHeartbeat(5*time.Millisecond, 250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery == nil || rep.Recovery.MembershipEpoch < 2 {
		t.Fatalf("shrink 6→4 must write out two SoCs: %+v", rep.Recovery)
	}
	if len(rep.Recovery.Replans) < 1 {
		t.Fatal("tidal shrink produced no replan episode")
	}
	if tr := rep.Recovery.Replans[0].Trigger; tr != "resize" {
		t.Fatalf("episode trigger %q, want resize", tr)
	}
}

func TestDistributedParallelismValidation(t *testing.T) {
	cfg := pipeCfg()
	cfg.Parallelism = "tensor"
	if _, err := RunDistributed(context.Background(), cfg); !errors.Is(err, ErrUnknownParallelism) {
		t.Fatalf("bad parallelism: got %v, want ErrUnknownParallelism", err)
	}
	cfg = pipeCfg()
	cfg.ResizeSchedule = []ResizeEvent{{Epoch: 0, SoCs: 4}}
	if _, err := RunDistributed(context.Background(), cfg); err == nil {
		t.Fatal("epoch-0 resize accepted; there is no boundary before epoch 0")
	}
}
