package runtime

import (
	"context"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/transport"
)

func pipelinePlan(t *testing.T, socs, maxGroups int) *autoplan.Plan {
	t.Helper()
	p, err := autoplan.Search(autoplan.Options{
		Spec:        nn.MustSpec("resnet34"),
		NumSoCs:     socs,
		MaxGroups:   maxGroups,
		GlobalBatch: 8,
		Samples:     50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != autoplan.ModePipeline {
		t.Fatalf("planner chose %v; the runtime pipeline tests need a pipeline plan", p.Mode)
	}
	return p
}

// A Validate-clean pipeline plan whose last stage runs past the built
// model (a hand-built plan, say, or one searched for another model) is
// refused by RunDistributed before any stage worker starts: an error,
// not a panic in a worker goroutine, and nothing left running. So is
// one that stops short of the model's last layer.
func TestRunDistributedRejectsStagesPastModel(t *testing.T) {
	prof := dataset.MustProfile("cifar10")
	train, val := prof.Generate(dataset.GenOptions{Samples: 40, Seed: 7}).Split(0.8)
	spec := nn.MustSpec("resnet34")
	for _, to := range []int{999, 1} {
		p := pipelinePlan(t, 16, 2)
		last := &p.Stages[len(p.Stages)-1]
		if to <= last.From {
			to = last.From
		}
		last.To = to
		if err := p.Validate(); err != nil {
			t.Fatalf("To=%d: the plan must stay Validate-clean: %v", to, err)
		}
		before := goruntime.NumGoroutine()
		_, err := RunDistributed(context.Background(), transport.NewChanMesh(16), spec, train, val, DistConfig{
			JobSpec: core.JobSpec{Epochs: 1, GlobalBatch: 8, LR: 0.02, Momentum: 0.9, Seed: 42},
			Plan:    p,
		})
		if err == nil || !strings.Contains(err.Error(), "pipeline stages cover layers") {
			t.Fatalf("To=%d: err = %v, want the stage-bounds refusal", to, err)
		}
		if after := goruntime.NumGoroutine(); after > before {
			t.Fatalf("To=%d: %d goroutines after the refusal, %d before", to, after, before)
		}
	}
}

// The mesh execution of a pipeline plan must agree with the in-process
// core strategy bit for bit: both ask dataset.Schedule which batches to
// walk and how many, stage execution is bit-identical to the fused
// full-model walk, activations and gradients cross the wire losslessly,
// and two-group averaging commutes. Any protocol bug — a misrouted
// boundary frame, a wrong micro-batch share, a slice mis-assembled at
// the leader — shows up as a bit difference here. The uneven row's 321
// training samples fold into shards of 160 and 161, which take 20 and 21
// batches of 8: every group walks group 0's 20, on the mesh as in core.
func TestRunPipelineMatchesCoreStrategyBitwise(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples int
	}{{"even", 400}, {"uneven", 402}} {
		t.Run(tc.name, func(t *testing.T) {
			prof := dataset.MustProfile("cifar10")
			full := prof.Generate(dataset.GenOptions{Samples: tc.samples, Seed: 7})
			train, val := full.Split(0.8)
			spec := nn.MustSpec("resnet34")
			p := pipelinePlan(t, 16, 2)
			if p.Groups() != 2 {
				t.Fatalf("planner chose %d groups; the uneven row needs 2", p.Groups())
			}

			job := &core.Job{
				Spec:         spec,
				Train:        train,
				Val:          val,
				PaperSamples: 50_000,
				GlobalBatch:  8,
				PaperBatch:   8,
				LR:           0.02,
				Momentum:     0.9,
				Epochs:       2,
				Seed:         42,
			}
			want, err := (&core.Pipeline{Plan: p}).Run(context.Background(), job, cluster.New(cluster.Config{NumSoCs: 16}))
			if err != nil {
				t.Fatal(err)
			}

			dist, err := RunDistributed(context.Background(), transport.NewChanMesh(16), spec, train, val, DistConfig{
				JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 8, LR: 0.02, Momentum: 0.9, Seed: 42},
				Plan:    p,
			})
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
				if !reflect.DeepEqual(dw[ti].Data, want.FinalWeights[ti].Data) {
					t.Fatalf("weight tensor %d differs between mesh and core runs", ti)
				}
			}
			ds := dist.Final.StateTensors()
			for ti := range ds {
				if !reflect.DeepEqual(ds[ti].Data, want.FinalState[ti].Data) {
					t.Fatalf("state tensor %d differs between mesh and core runs", ti)
				}
			}
		})
	}
}

// Regression: the plain pipeline path must tick the shared fault clock
// every iteration. Before the fix, stage workers never called
// FaultTicker, so a scripted crash (DistributedConfig.InjectCrashes
// under Parallelism "pipeline") silently never fired and the run
// completed as if fault-free. Now the crash trips the transport and
// tears the mesh down with a stage-worker-named error.
func TestRunPipelineTicksFaultPlan(t *testing.T) {
	prof := dataset.MustProfile("celeba")
	full := prof.Generate(dataset.GenOptions{Samples: 200, Seed: 9})
	train, val := full.Split(0.8)
	spec := nn.MustSpec("lenet5")
	p, err := autoplan.Search(autoplan.Options{
		Spec: spec, NumSoCs: 4, MaxGroups: 1, GlobalBatch: 16, Samples: train.Len(),
		Only: autoplan.ModePipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := p.Placement[0][1]
	_, err = RunDistributed(context.Background(), transport.NewChanMesh(4), spec, train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    p,
		Faults: &transport.FaultPlan{Events: []transport.FaultEvent{
			{Kind: transport.FaultCrash, Node: victim, Epoch: 0, Iter: 1},
		}},
	})
	if err == nil {
		t.Fatal("scripted crash never fired: the pipeline is not ticking the fault plan")
	}
	if !strings.Contains(err.Error(), "stage worker") {
		t.Fatalf("teardown error must name the failing stage worker, got: %v", err)
	}
}

func TestRunPipelineRejectsBadConfigs(t *testing.T) {
	prof := dataset.MustProfile("cifar10")
	full := prof.Generate(dataset.GenOptions{Samples: 100, Seed: 7})
	train, val := full.Split(0.8)
	spec := nn.MustSpec("resnet34")
	js := core.JobSpec{Epochs: 1, GlobalBatch: 8, LR: 0.02, Momentum: 0.9, Seed: 1}

	run := func(mesh int, cfg DistConfig) error {
		_, err := RunDistributed(context.Background(), transport.NewChanMesh(mesh), spec, train, val, cfg)
		return err
	}
	if run(8, DistConfig{JobSpec: js}) == nil {
		t.Fatal("nil plan accepted")
	}
	p := pipelinePlan(t, 16, 2)
	if run(8, DistConfig{JobSpec: js, Plan: p}) == nil {
		t.Fatal("16-SoC plan accepted on an 8-node mesh")
	}
	ragged := *p
	ragged.Placement = [][]int{p.Placement[0], p.Placement[1][:len(p.Placement[1])-1]}
	if run(16, DistConfig{JobSpec: js, Plan: &ragged}) == nil {
		t.Fatal("pipeline groups of unequal depth accepted")
	}
	if run(16, DistConfig{JobSpec: core.JobSpec{Epochs: 0, GlobalBatch: 8}, Plan: p}) == nil {
		t.Fatal("zero epochs accepted")
	}
}
