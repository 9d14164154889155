package socflow

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// autoparConfig is a small sync-bound configuration the planner
// pipelines: a deep model on single-group 8-SoC clusters with the
// paper batch floored so data parallelism starves.
func autoparConfig() Config {
	return Config{
		JobSpec: JobSpec{
			Model: "resnet34", Dataset: "cifar10", Epochs: 2, GlobalBatch: 8,
			LR: 0.02, Momentum: 0.9, Seed: 11, TrainSamples: 128, ValSamples: 64,
		},
		NumSoCs:     8,
		Groups:      1,
		PaperBatch:  8,
		Parallelism: "auto",
	}
}

func TestRunAutoParallelismPicksPipeline(t *testing.T) {
	cfg := autoparConfig()
	p, err := PlanParallelism(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != "pipeline" {
		t.Fatalf("planner chose %q for the sync-bound config, want pipeline", p.Mode)
	}
	if p.EpochSeconds >= p.DataEpochSeconds {
		t.Fatalf("pipeline plan (%.1fs) does not beat data parallelism (%.1fs)",
			p.EpochSeconds, p.DataEpochSeconds)
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "Pipeline" {
		t.Fatalf("auto parallelism ran strategy %q, want Pipeline", rep.Strategy)
	}
	if len(rep.EpochAccuracies) != 2 {
		t.Fatalf("ran %d epochs", len(rep.EpochAccuracies))
	}
	// The report's simulated time is the planner's prediction — one
	// shared pricer on both sides.
	if want := 2 * p.EpochSeconds; rep.SimSeconds != want {
		t.Fatalf("simulated %.3fs, planner predicted %.3fs", rep.SimSeconds, want)
	}
}

// WithPlan executes a pre-searched plan, and equal (config, plan)
// pairs are bit-reproducible through the whole facade stack.
func TestWithPlanReproducible(t *testing.T) {
	cfg := autoparConfig()
	cfg.Parallelism = "" // the plan, not the config, selects the mode
	p, err := PlanParallelism(autoparConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		rep, err := Run(context.Background(), cfg, WithPlan(p))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Strategy != "Pipeline" {
		t.Fatalf("WithPlan ran strategy %q, want Pipeline", a.Strategy)
	}
	if !reflect.DeepEqual(a.EpochAccuracies, b.EpochAccuracies) {
		t.Fatalf("equal plans diverged: %v vs %v", a.EpochAccuracies, b.EpochAccuracies)
	}
	if a.SimSeconds != b.SimSeconds {
		t.Fatalf("simulated time diverged: %v vs %v", a.SimSeconds, b.SimSeconds)
	}
}

// dataPlanConfig is a small compute-bound configuration the planner
// must answer with a data plan: lenet5's sub-megabyte gradients sync
// for almost nothing, and a pipeline pays dispatch overhead per stage.
func dataPlanConfig() Config {
	return Config{
		JobSpec: JobSpec{
			Model: "lenet5", Dataset: "fmnist", Epochs: 1, GlobalBatch: 16,
			LR: 0.02, Momentum: 0.9, Seed: 3, TrainSamples: 128, ValSamples: 64,
		},
		NumSoCs:    4,
		Groups:     2,
		Mixed:      "fp32",
		PaperBatch: 64,
	}
}

func dataPlan(t *testing.T) *ParallelPlan {
	t.Helper()
	p, err := PlanParallelism(dataPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != "data" {
		t.Fatalf("planner chose %v for lenet5, the data-plan tests need a data plan", p)
	}
	return p
}

// A data-mode plan maps onto the paper's grouped protocol at the
// plan's group count, and — in FP32, the precision the planner prices
// — the executed epoch is the predicted one, bit for bit.
func TestWithPlanDataModeRunsSoCFlow(t *testing.T) {
	p := dataPlan(t)
	rep, err := Run(context.Background(), dataPlanConfig(), WithPlan(p))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "SoCFlow" {
		t.Fatalf("data plan ran strategy %q, want SoCFlow", rep.Strategy)
	}
	if rep.MeanEpochSeconds != p.EpochSeconds {
		t.Fatalf("executed epoch %.6fs, planner predicted %.6fs", rep.MeanEpochSeconds, p.EpochSeconds)
	}
}

func TestParallelismValidation(t *testing.T) {
	cfg := autoparConfig()
	cfg.Parallelism = "tensor"
	if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrUnknownParallelism) {
		t.Fatalf("bad parallelism: got %v, want ErrUnknownParallelism", err)
	}

	cfg = autoparConfig()
	cfg.Strategy = "ring"
	if _, err := Run(context.Background(), cfg); !errors.Is(err, ErrUnknownParallelism) {
		t.Fatalf("auto parallelism on a baseline: got %v, want ErrUnknownParallelism", err)
	}

	p, err := PlanParallelism(autoparConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg = autoparConfig()
	cfg.Parallelism = ""
	cfg.NumSoCs = 16 // plan was searched for 8
	if _, err := Run(context.Background(), cfg, WithPlan(p)); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("mismatched plan: got %v, want ErrBadPlan", err)
	}

	bad := *p
	bad.MicroBatches = 0
	cfg = autoparConfig()
	cfg.Parallelism = ""
	if _, err := Run(context.Background(), cfg, WithPlan(&bad)); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("invalid plan: got %v, want ErrBadPlan", err)
	}

	// A data plan runs as SoCFlow at its group count: one that prices
	// another placement or batch must not get as far as the scheduler.
	dp := dataPlan(t)
	moved := *dp
	moved.Placement = [][]int{{0, 2}, {1, 3}}
	if _, err := defaultClient().Submit(context.Background(), dataPlanConfig(), WithPlan(&moved)); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("data plan off the integrity-greedy mapping: Submit returned %v, want ErrBadPlan", err)
	}
	cfg = dataPlanConfig()
	cfg.PaperBatch = 32 // plan was priced at 64
	if _, err := defaultClient().Submit(context.Background(), cfg, WithPlan(dp)); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("data plan priced at another batch: Submit returned %v, want ErrBadPlan", err)
	}
}

// Planning reads the catalogs and the cluster, never the training set:
// it must not generate one (the parent built TrainSamples + ValSamples
// synthetic images per call and dropped them), and it fails on unknown
// names exactly as a run does.
func TestPlanParallelismGeneratesNoDataset(t *testing.T) {
	want, err := PlanParallelism(autoparConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 1<<17 samples would be ~100 MB of images if generated — enough to
	// fail the bound twelve times over without endangering a shared host.
	huge := autoparConfig()
	huge.TrainSamples = 1 << 17
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := PlanParallelism(huge)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Errorf("planning with TrainSamples = 1<<17 allocated %d MB, want < 8", alloc>>20)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TrainSamples changed the plan:\n  %+v\n  %+v", got, want)
	}
	for _, c := range []struct {
		mutate func(*Config)
		want   error
	}{
		{func(c *Config) { c.Model = "alexnet" }, ErrUnknownModel},
		{func(c *Config) { c.Dataset = "imagenet" }, ErrUnknownDataset},
		{func(c *Config) { c.Generation = "sd999" }, ErrUnknownGeneration},
	} {
		cfg := autoparConfig()
		c.mutate(&cfg)
		if _, err := PlanParallelism(cfg); !errors.Is(err, c.want) {
			t.Errorf("PlanParallelism returned %v, want %v", err, c.want)
		}
	}
}
