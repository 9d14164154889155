package core

import (
	"context"
	"reflect"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
)

func cluN(n int) *cluster.Cluster { return cluster.New(cluster.Config{NumSoCs: n}) }

// pipelineJob builds a small functional job on the deep model the
// planner pipelines.
func pipelineJob(t *testing.T, epochs int) *Job {
	t.Helper()
	prof := dataset.MustProfile("cifar10")
	full := prof.Generate(dataset.GenOptions{Samples: 600, Seed: 7})
	train, val := full.Split(0.8)
	return &Job{
		Spec:         nn.MustSpec("resnet34"),
		Train:        train,
		Val:          val,
		PaperSamples: 50_000,
		GlobalBatch:  8,
		PaperBatch:   8,
		LR:           0.02,
		Momentum:     0.9,
		Epochs:       epochs,
		Seed:         42,
	}
}

func searchedPlan(t *testing.T, socs, maxGroups int) *autoplan.Plan {
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
		t.Fatalf("planner chose %v, the pipeline tests need a pipeline plan", p.Mode)
	}
	return p
}

func TestPipelineRunLearnsAndPrices(t *testing.T) {
	job := pipelineJob(t, 6)
	p := searchedPlan(t, 16, 2)
	s := &Pipeline{Plan: p}
	res, err := s.Run(context.Background(), job, cluN(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochAccuracies) != 6 {
		t.Fatalf("ran %d epochs", len(res.EpochAccuracies))
	}
	chance := 1.0 / float64(job.Train.Classes)
	if res.BestAccuracy < chance+0.15 {
		t.Fatalf("pipeline failed to learn: best=%v (chance %v)", res.BestAccuracy, chance)
	}
	if res.SimSeconds <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("missing performance results: %v s, %v J", res.SimSeconds, res.EnergyJ)
	}
	if res.Breakdown.Compute <= 0 || res.Breakdown.Update <= 0 {
		t.Fatalf("empty breakdown: %+v", res.Breakdown)
	}
	if len(res.FinalWeights) == 0 || len(res.FinalState) == 0 {
		t.Fatal("missing final snapshot")
	}
}

// The executed epoch time must equal the planner's prediction exactly:
// both sides price through the same Pricer, and the whole point of the
// shared formula is that Search's EpochSeconds is the epoch the
// runtime then spends.
func TestPipelineEpochMatchesPlannerPrediction(t *testing.T) {
	job := pipelineJob(t, 2)
	p := searchedPlan(t, 16, 2)
	res, err := (&Pipeline{Plan: p}).Run(context.Background(), job, cluN(16))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.EpochSimSeconds {
		if e != p.EpochSeconds {
			t.Fatalf("epoch %d cost %.6fs, planner predicted %.6fs", i, e, p.EpochSeconds)
		}
	}
}

// The same contract for data plans: the search prices a data candidate
// with the Fig. 7 kernel, the integrity-greedy mapping, the coloring
// and the member-batch rule SoCFlow executes, so the predicted epoch is
// the FP32 SoCFlow epoch at the plan's group count, bit for bit.
func TestDataPlanEpochMatchesPlannerPrediction(t *testing.T) {
	full := dataset.MustProfile("cifar10").Generate(dataset.GenOptions{Samples: 80, Seed: 7})
	train, val := full.Split(0.8)
	for _, model := range []string{"lenet5", "vgg11", "resnet34"} {
		for _, socs := range []int{8, 16, 32} {
			for _, batch := range []int{8, 64} {
				for _, maxGroups := range []int{1, 2, 4, 8} {
					o := autoplan.Options{Spec: nn.MustSpec(model), NumSoCs: socs, MaxGroups: maxGroups,
						GlobalBatch: batch, Samples: 50_000, Only: autoplan.ModeData}
					p, err := autoplan.Search(o)
					if err != nil {
						t.Fatal(err)
					}
					job := &Job{Spec: o.Spec, Train: train, Val: val, PaperSamples: o.Samples,
						GlobalBatch: 8, PaperBatch: batch, LR: 0.02, Momentum: 0.9, Epochs: 1, Seed: 42}
					res, err := (&SoCFlow{NumGroups: p.Groups(), Mixed: MixedOff}).Run(context.Background(), job, cluN(socs))
					if err != nil {
						t.Fatal(err)
					}
					if res.EpochSimSeconds[0] != p.EpochSeconds {
						t.Errorf("%s, %d SoCs, batch %d, <= %d groups: %v predicted %.6fs, SoCFlow executed %.6fs",
							model, socs, batch, maxGroups, p, p.EpochSeconds, res.EpochSimSeconds[0])
					}
				}
			}
		}
	}

	// A survivor subset has no SoCFlow run to compare with (the strategy
	// maps the whole cluster); its price must still be a function of the
	// plan alone, reproduced by a fresh pricer.
	o := autoplan.Options{Spec: nn.MustSpec("vgg11"), NumSoCs: 16, Nodes: []int{0, 1, 2, 4, 5, 7, 9, 10, 11, 12, 14, 15},
		MaxGroups: 4, GlobalBatch: 64, Samples: 50_000, Only: autoplan.ModeData}
	p, err := autoplan.Search(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.EpochSecondsOn(cluN(16), o.Spec, o.Samples); got != p.EpochSeconds {
		t.Errorf("survivor-subset plan %v re-priced %.6fs, search recorded %.6fs", p, got, p.EpochSeconds)
	}
}

// Pipeline training is bit-reproducible: equal seeds give identical
// epoch accuracy trajectories and identical final weights.
func TestPipelineBitReproducible(t *testing.T) {
	p := searchedPlan(t, 8, 1)
	run := func() *Result {
		res, err := (&Pipeline{Plan: p}).Run(context.Background(), pipelineJob(t, 4), cluN(8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.EpochAccuracies, b.EpochAccuracies) {
		t.Fatalf("equal seeds diverged: %v vs %v", a.EpochAccuracies, b.EpochAccuracies)
	}
	for i := range a.FinalWeights {
		if !reflect.DeepEqual(a.FinalWeights[i].Data, b.FinalWeights[i].Data) {
			t.Fatalf("final weights tensor %d differs between equal-seed runs", i)
		}
	}
}

// gpipeStep's accumulated micro-batch gradient equals the full-batch
// gradient up to float accumulation order, so a GPipe model and a
// plain-step model trained from the same seed stay numerically close —
// identical when micro == 1.
func TestGPipeStepDegeneratesToPlainStep(t *testing.T) {
	job := pipelineJob(t, 1)
	r1 := tensorRNG(5)
	r2 := tensorRNG(5)
	m1 := job.BuildModel(r1)
	m2 := job.BuildModel(r2)
	o1 := nn.NewSGD(job.LR, job.Momentum, 0)
	o2 := nn.NewSGD(job.LR, job.Momentum, 0)
	it := dataset.NewBatchIterator(job.Train, 8, 3)
	for i := 0; i < 4; i++ {
		x, labels := it.Next()
		plainStep(m1, o1, x, labels)
		gpipeStep(m2, o2, x, labels, 1)
	}
	w1, w2 := m1.Weights(), m2.Weights()
	for i := range w1 {
		if !reflect.DeepEqual(w1[i].Data, w2[i].Data) {
			t.Fatalf("micro=1 gpipeStep diverged from plainStep at tensor %d", i)
		}
	}
}

func TestPipelineRejectsBadPlans(t *testing.T) {
	job := pipelineJob(t, 1)
	if _, err := (&Pipeline{}).Run(context.Background(), job, cluN(8)); err == nil {
		t.Fatal("nil plan accepted")
	}
	dataPlan, err := autoplan.Search(autoplan.Options{
		Spec: nn.MustSpec("lenet5"), NumSoCs: 8, MaxGroups: 1, GlobalBatch: 64, Samples: 50_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dataPlan.Mode == autoplan.ModeData {
		if _, err := (&Pipeline{Plan: dataPlan}).Run(context.Background(), job, cluN(8)); err == nil {
			t.Fatal("data-parallel plan accepted by the pipeline executor")
		}
	}
	p := searchedPlan(t, 16, 2)
	if _, err := (&Pipeline{Plan: p}).Run(context.Background(), job, cluN(8)); err == nil {
		t.Fatal("plan for 16 SoCs accepted on an 8-SoC cluster")
	}
}
