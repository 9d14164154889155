package runtime

import (
	"context"
	"reflect"
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

// The mesh execution of a pipeline plan must agree with the in-process
// core strategy bit for bit: both derive the same schedule from the
// seed, stage execution is bit-identical to the fused full-model walk,
// activations and gradients cross the wire losslessly, and two-group
// averaging commutes. Any protocol bug — a misrouted boundary frame, a
// wrong micro-batch share, a slice mis-assembled at the leader — shows
// up as a bit difference here.
func TestRunPipelineMatchesCoreStrategyBitwise(t *testing.T) {
	prof := dataset.MustProfile("cifar10")
	full := prof.Generate(dataset.GenOptions{Samples: 400, Seed: 7})
	train, val := full.Split(0.8)
	spec := nn.MustSpec("resnet34")
	p := pipelinePlan(t, 16, 2)

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

	dist, err := RunPipeline(context.Background(), transport.NewChanMesh(16), spec, train, val, PipelineConfig{
		DistConfig: DistConfig{JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 8, LR: 0.02, Momentum: 0.9, Seed: 42}},
		Plan:       p,
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
	_, err = RunPipeline(context.Background(), transport.NewChanMesh(4), spec, train, val, PipelineConfig{
		DistConfig: DistConfig{
			JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
			Faults: &transport.FaultPlan{Events: []transport.FaultEvent{
				{Kind: transport.FaultCrash, Node: victim, Epoch: 0, Iter: 1},
			}},
		},
		Plan: p,
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

	if _, err := RunPipeline(context.Background(), transport.NewChanMesh(8), spec, train, val, PipelineConfig{DistConfig: DistConfig{JobSpec: js}}); err == nil {
		t.Fatal("nil plan accepted")
	}
	p := pipelinePlan(t, 16, 2)
	if _, err := RunPipeline(context.Background(), transport.NewChanMesh(8), spec, train, val, PipelineConfig{DistConfig: DistConfig{JobSpec: js}, Plan: p}); err == nil {
		t.Fatal("16-SoC plan accepted on an 8-node mesh")
	}
	for name, dc := range map[string]DistConfig{
		"Groups":         {JobSpec: js, Groups: p.Placement},
		"DegradeOnFault": {JobSpec: js, DegradeOnFault: true},
	} {
		if _, err := RunPipeline(context.Background(), transport.NewChanMesh(16), spec, train, val, PipelineConfig{DistConfig: dc, Plan: p}); err == nil {
			t.Fatalf("%s accepted on the pipeline track, which takes its groups from the plan", name)
		}
	}
	dataPlan, err := autoplan.Search(autoplan.Options{
		Spec: nn.MustSpec("lenet5"), NumSoCs: 8, MaxGroups: 1, GlobalBatch: 64, Samples: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dataPlan.Mode == autoplan.ModeData {
		if _, err := RunPipeline(context.Background(), transport.NewChanMesh(8), spec, train, val, PipelineConfig{DistConfig: DistConfig{JobSpec: js}, Plan: dataPlan}); err == nil {
			t.Fatal("data-parallel plan accepted by the pipeline runtime")
		}
	}
}
