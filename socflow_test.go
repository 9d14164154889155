package socflow

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"socflow/internal/core"
)

func fastCfg(strategy string) Config {
	return Config{
		JobSpec: JobSpec{
			Model:        "lenet5",
			Dataset:      "fmnist",
			GlobalBatch:  16,
			Epochs:       6,
			TrainSamples: 240,
			ValSamples:   60,
			Seed:         3,
		},
		Strategy: strategy,
		NumSoCs:  16,
		Groups:   4,
	}
}

func TestRunDefaultsAndLearns(t *testing.T) {
	rep, err := Run(context.Background(), fastCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "SoCFlow" || rep.Model != "lenet5" || rep.Dataset != "fmnist" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if len(rep.EpochAccuracies) != 6 {
		t.Fatalf("epochs recorded: %d", len(rep.EpochAccuracies))
	}
	if rep.SimSeconds <= 0 || rep.EnergyKJ <= 0 || rep.MeanEpochSeconds <= 0 {
		t.Fatalf("performance fields missing: %+v", rep)
	}
	if rep.EstimatedHoursToConverge <= 0 {
		t.Fatal("extrapolation missing")
	}
	if rep.BestAccuracy <= 0.1 {
		t.Fatalf("did not learn: %v", rep.BestAccuracy)
	}
}

func TestRunEveryStrategy(t *testing.T) {
	for _, s := range Strategies() {
		s := s
		t.Run(s, func(t *testing.T) {
			rep, err := Run(context.Background(), fastCfg(s))
			if err != nil {
				t.Fatal(err)
			}
			if rep.SimSeconds <= 0 {
				t.Fatalf("%s: no simulated time", s)
			}
		})
	}
}

func TestRunMixedModes(t *testing.T) {
	for _, m := range []string{"auto", "fp32", "int8", "half"} {
		cfg := fastCfg("socflow")
		cfg.Mixed = m
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatalf("mixed mode %q: %v", m, err)
		}
	}
}

// TestRunInt8Kernels trains on the NPU datapath alone ("Ours-INT8":
// every sample through the fake-quantized replica and integer SGD) and
// checks it still learns. It learns slower than FP32 — chance level for
// the first four epochs at this scale — so it gets the full six.
func TestRunInt8Kernels(t *testing.T) {
	cfg := fastCfg("socflow")
	cfg.Mixed = "int8"
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(rep.BestAccuracy > 0.1) {
		t.Fatalf("INT8-only training did not learn: %v", rep.BestAccuracy)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cases := []struct {
		cfg  Config
		want error
	}{
		{Config{JobSpec: JobSpec{Model: "alexnet"}}, ErrUnknownModel},
		{Config{JobSpec: JobSpec{Dataset: "imagenet"}}, ErrUnknownDataset},
		{Config{Strategy: "magic"}, ErrUnknownStrategy},
		{Config{Mixed: "fp64"}, ErrUnknownMixedMode},
		{Config{Generation: "sd999"}, ErrUnknownGeneration},
	}
	for _, c := range cases {
		_, err := Run(context.Background(), c.cfg)
		if err == nil {
			t.Fatalf("config %+v should be rejected", c.cfg)
		}
		if !errors.Is(err, c.want) {
			t.Fatalf("config %+v: got %v, want errors.Is(%v)", c.cfg, err, c.want)
		}
	}
}

func TestSubmitWaitMatchesRun(t *testing.T) {
	rep, err := Run(context.Background(), fastCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	h, err := defaultClient().Submit(context.Background(), fastCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.EpochAccuracies) != len(rep.EpochAccuracies) {
		t.Fatalf("epoch counts differ: %d vs %d", len(got.EpochAccuracies), len(rep.EpochAccuracies))
	}
	for i := range got.EpochAccuracies {
		if got.EpochAccuracies[i] != rep.EpochAccuracies[i] {
			t.Fatalf("epoch %d: submit %v vs run %v", i, got.EpochAccuracies[i], rep.EpochAccuracies[i])
		}
	}
	if got.SimSeconds != rep.SimSeconds {
		t.Fatalf("sim time differs: %v vs %v", got.SimSeconds, rep.SimSeconds)
	}
	st, err := h.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("finished handle state = %s", st.State)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a, err := Run(context.Background(), fastCfg("socflow"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), fastCfg("socflow"))
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalAccuracy != b.FinalAccuracy || a.SimSeconds != b.SimSeconds {
		t.Fatalf("same seed must reproduce: %v/%v vs %v/%v",
			a.FinalAccuracy, a.SimSeconds, b.FinalAccuracy, b.SimSeconds)
	}
}

func TestCatalogs(t *testing.T) {
	// The model catalog is a registry other tests may extend, so check
	// containment of the five built-ins rather than an exact count.
	have := map[string]bool{}
	for _, m := range Models() {
		have[m] = true
	}
	for _, m := range []string{"lenet5", "vgg11", "resnet18", "mobilenetv1", "resnet50"} {
		if !have[m] {
			t.Fatalf("builtin model %q missing from catalog %v", m, Models())
		}
	}
	if len(Datasets()) != 5 || len(Strategies()) != 7 {
		t.Fatalf("catalogs: %d datasets, %d strategies", len(Datasets()), len(Strategies()))
	}
}

func TestPlanTopology(t *testing.T) {
	rep, err := PlanTopology(15, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 5 || len(rep.SplitGroups) != 2 || len(rep.CommunicationGroups) != 2 {
		t.Fatalf("paper-example topology wrong: %+v", rep)
	}
	_, err = PlanTopology(4, 8, 5)
	if err == nil {
		t.Fatal("impossible topology must error")
	}
	if !errors.Is(err, ErrBadTopology) {
		t.Fatalf("want ErrBadTopology, got %v", err)
	}
}

func TestTidalHelpers(t *testing.T) {
	prof := TidalProfile()
	if len(prof) != 24 {
		t.Fatalf("profile hours: %d", len(prof))
	}
	_, hours := IdleWindow(0.2)
	if hours < 4 {
		t.Fatalf("idle window %v h, expected the paper's ~4h+ slot", hours)
	}
}

func TestRunAutoGroups(t *testing.T) {
	cfg := fastCfg("socflow")
	cfg.Groups = -1
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestAccuracy <= 0 {
		t.Fatal("auto-grouped run produced nothing")
	}
}

func TestRunDistributedFacade(t *testing.T) {
	rep, err := RunDistributed(context.Background(), DistributedConfig{
		JobSpec: JobSpec{
			Epochs:       4,
			TrainSamples: 300,
			ValSamples:   60,
		},
		NumSoCs:   6,
		Groups:    2,
		InProcess: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EpochAccuracies) != 4 || len(rep.Topology) != 2 {
		t.Fatalf("report incomplete: %+v", rep)
	}
	if rep.BestAccuracy < 0.3 {
		t.Fatalf("distributed facade failed to learn: %v", rep.BestAccuracy)
	}
}

func TestRunDistributedFacadeTCP(t *testing.T) {
	rep, err := RunDistributed(context.Background(), DistributedConfig{
		JobSpec: JobSpec{
			Epochs:       2,
			TrainSamples: 160,
			ValSamples:   40,
		},
		NumSoCs: 4,
		Groups:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EpochAccuracies) != 2 {
		t.Fatalf("TCP facade incomplete: %+v", rep)
	}
}

// PreemptWindows route through the elastic track: the departure is
// detected by heartbeat, the return re-admitted with a state transfer,
// and the report carries the recovery summary.
func TestRunDistributedElasticPreemptWindow(t *testing.T) {
	rep, err := RunDistributed(context.Background(), DistributedConfig{
		JobSpec: JobSpec{
			Epochs:       5,
			TrainSamples: 300,
			ValSamples:   60,
		},
		NumSoCs:        6,
		Groups:         2,
		InProcess:      true,
		PreemptWindows: []PreemptWindow{{SoC: 4, Epoch: 1, Return: 3}},
	}, WithHeartbeat(5*time.Millisecond, 250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.EpochAccuracies) != 5 {
		t.Fatalf("elastic facade incomplete: %+v", rep)
	}
	s := rep.Recovery
	if s == nil {
		t.Fatal("elastic run must report recovery stats")
	}
	if s.Detections < 1 || s.Rejoins != 1 || s.StateTransferBytes <= 0 {
		t.Fatalf("preemption window not absorbed: %+v", s)
	}
	if rep.BestAccuracy < 0.3 {
		t.Fatalf("elastic facade failed to learn: %v", rep.BestAccuracy)
	}
}

// WithCheckpointEvery and WithRecovery are honoured by every strategy,
// not silently dropped: stride 2 over 3 epochs persists epochs 2 and 3
// (the last is always saved), and installing the options leaves the
// report bit-identical.
func TestRunCheckpointAndRecoveryOptions(t *testing.T) {
	rows := map[string]Config{}
	for _, s := range Strategies() {
		cfg := fastCfg(s)
		cfg.Epochs = 3
		rows[s] = cfg
	}
	pipe := autoparConfig()
	pipe.Parallelism = "pipeline"
	pipe.Epochs = 3
	rows["socflow/pipeline"] = pipe

	for name, cfg := range rows {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rep, err := Run(context.Background(), cfg, WithCheckpointEvery(2, dir), WithRecovery(2, time.Millisecond))
			if err != nil {
				t.Fatal(err)
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
			plain, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, plain) {
				t.Fatalf("options changed the report:\nwith    %+v\nwithout %+v", rep, plain)
			}
		})
	}
}

func TestRunDistributedFacadeRejectsBadModel(t *testing.T) {
	_, err := RunDistributed(context.Background(), DistributedConfig{JobSpec: JobSpec{Model: "gpt3"}})
	if err == nil {
		t.Fatal("unknown model must error")
	}
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
}

// The repo benchmark's train-conv and train-small workloads hash each
// run's accuracies, simulated seconds and energy into their
// result_digest. Pinning them here, at the benchmark's --smoke size and
// seed 1, makes a moved training result a tier-1 failure rather than a
// benchmark surprise (TestMeshTracksArePinned does the same for the
// mesh workloads).
func TestTrainTracksArePinned(t *testing.T) {
	for _, want := range []struct {
		name        string
		cfg         Config
		acc         []float64
		sim, energy float64
	}{
		{
			name: "train-conv",
			cfg: Config{
				JobSpec: JobSpec{Model: "vgg11", Dataset: "cifar10", Seed: 1, Epochs: 2, TrainSamples: 256},
				NumSoCs: 32, Groups: 8, Mixed: "auto",
			},
			acc:    []float64{0x1.2p-04, 0x1.1p-03},
			sim:    0x1.3c10fc504816ep+07,
			energy: 0x1.33d75ef7065c3p+03,
		},
		{
			name: "train-small",
			cfg: Config{
				JobSpec: JobSpec{Model: "lenet5", Dataset: "fmnist", GlobalBatch: 16, Seed: 1, Epochs: 2, TrainSamples: 480},
				NumSoCs: 32, Groups: 8,
			},
			acc:    []float64{0x1.8p-04, 0x1.cp-04},
			sim:    0x1.e4b898e66273cp+03,
			energy: 0x1.6c4d14ede57d7p-01,
		},
	} {
		rep, err := Run(context.Background(), want.cfg)
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if !reflect.DeepEqual(rep.EpochAccuracies, want.acc) || rep.SimSeconds != want.sim || rep.EnergyKJ != want.energy {
			t.Errorf("%s: accuracies %x sim %x energy %x, want %x %x %x",
				want.name, rep.EpochAccuracies, rep.SimSeconds, rep.EnergyKJ, want.acc, want.sim, want.energy)
		}
	}
}
