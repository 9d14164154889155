package exp

import (
	"fmt"

	"socflow/internal/baselines"
	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
)

// Scenario is one model/dataset pair of the paper's evaluation grid
// (Table 2 / Table 3 rows).
type Scenario struct {
	// Label is the paper's row label.
	Label string
	// Model and Dataset name catalog entries.
	Model, Dataset string
	// GlobalBatch is BS_g (256 for MobileNet, 64 otherwise).
	GlobalBatch int
	// SkipFL marks scenarios where the FL baselines do not converge
	// (the paper's "x" for ResNet50-Finetune).
	SkipFL bool
	// EpochBoost multiplies the functional epoch budget (default 1).
	// The class-rich and depthwise scenarios converge ~2x slower at
	// micro scale.
	EpochBoost int
}

// Scenarios returns the paper's eight evaluation scenarios in
// presentation order (Table 3).
func Scenarios() []Scenario {
	return []Scenario{
		{Label: "MobileNet", Model: "mobilenetv1", Dataset: "cifar10", GlobalBatch: 256, EpochBoost: 2},
		{Label: "VGG11", Model: "vgg11", Dataset: "cifar10", GlobalBatch: 64},
		{Label: "ResNet18", Model: "resnet18", Dataset: "cifar10", GlobalBatch: 64},
		{Label: "VGG11-CelebA", Model: "vgg11", Dataset: "celeba", GlobalBatch: 64},
		{Label: "ResNet18-CelebA", Model: "resnet18", Dataset: "celeba", GlobalBatch: 64},
		{Label: "LeNet5-EMNIST", Model: "lenet5", Dataset: "emnist", GlobalBatch: 64, EpochBoost: 2},
		{Label: "LeNet5-FMNIST", Model: "lenet5", Dataset: "fmnist", GlobalBatch: 64},
		{Label: "ResNet50-Finetune", Model: "resnet50", Dataset: "cinic10", GlobalBatch: 64, SkipFL: true},
	}
}

// CoreScenarios returns the three-scenario subset used by the fast
// benchmark defaults (the full grid is available via `socflow bench
// --full`).
func CoreScenarios() []Scenario {
	all := Scenarios()
	return []Scenario{all[1], all[2], all[6]} // VGG11, ResNet18, LeNet5-FMNIST
}

// Options scales the functional side of every experiment.
type Options struct {
	// TrainSamples and ValSamples size the synthetic micro datasets
	// (defaults 480/120).
	TrainSamples, ValSamples int
	// Epochs caps functional epochs per run (default 10).
	Epochs int
	// NumSoCs is the fleet size (default 32).
	NumSoCs int
	// Groups is SoCFlow's N (default 8).
	Groups int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Metrics, when non-nil, receives every run's observability stream
	// (sim.* counters/gauges, dual-clock epoch spans). Shared across the
	// experiment's whole strategy grid, so totals are grid totals.
	Metrics *metrics.Registry
	// Kernels, when non-nil, tracks every model the experiments build,
	// so Metrics receives their kernel counts.
	Kernels *core.KernelHarvest
}

func (o Options) withDefaults() Options {
	if o.TrainSamples == 0 {
		o.TrainSamples = 960
	}
	if o.ValSamples == 0 {
		o.ValSamples = 160
	}
	if o.Epochs == 0 {
		o.Epochs = 12
	}
	if o.NumSoCs == 0 {
		o.NumSoCs = 32
	}
	if o.Groups == 0 {
		// The paper's 32-SoC evaluation uses "5, 8, and 2" physical,
		// logical, and communication groups (§4.1); we read "8" as the
		// logical-group count (groups of 4 SoCs), the configuration in
		// which SoCFlow's epochs are fastest. Fig. 13 forces the
		// size-8-group reading instead, where mapping and planning are
		// exercised hardest.
		o.Groups = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// jobFor builds the functional job for a scenario.
func jobFor(sc Scenario, o Options) *core.Job {
	spec := nn.MustSpec(sc.Model)
	prof := dataset.MustProfile(sc.Dataset)
	// Class-rich datasets (EMNIST: 47 classes) need proportionally more
	// synthetic samples to be learnable at micro scale.
	trainN := o.TrainSamples
	if minN := 24 * prof.Classes; trainN < minN {
		trainN = minN
	}
	valN := o.ValSamples
	if minN := 4 * prof.Classes; valN < minN {
		valN = minN
	}
	pool := prof.Generate(dataset.GenOptions{Samples: trainN + valN, Seed: o.Seed})
	train, val := pool.Split(float64(trainN) / float64(pool.Len()))
	// The performance track prices the paper's batch size; the
	// functional track shrinks the batch so every SoCFlow group still
	// gets several SGD steps per micro epoch.
	batch := sc.GlobalBatch
	if maxB := trainN / (15 * o.Groups); batch > maxB {
		batch = maxB
	}
	if batch < 4 {
		batch = 4
	}
	epochs := o.Epochs
	if sc.EpochBoost > 1 {
		epochs *= sc.EpochBoost
	}
	return &core.Job{
		Spec:         spec,
		Train:        train,
		Val:          val,
		PaperSamples: prof.PaperTrainN,
		GlobalBatch:  batch,
		PaperBatch:   sc.GlobalBatch,
		LR:           0.02,
		Momentum:     0.9,
		Epochs:       epochs,
		Seed:         o.Seed,
		Metrics:      o.Metrics,
		Kernels:      o.Kernels,
	}
}

// strategyGrid returns SoCFlow followed by the six baselines, the
// column order of Table 3 / Fig. 8 / Fig. 9.
func strategyGrid(o Options) []core.Strategy {
	out := []core.Strategy{&core.SoCFlow{NumGroups: o.Groups}}
	return append(out, baselines.All()...)
}

// isFL reports whether a strategy is one of the federated baselines.
func isFL(name string) bool { return name == "FedAvg" || name == "T-FedAvg" }

// localReference is plain single-model SGD with free synchronization —
// the paper's "Local" accuracy column. It trains what the synchronous
// baselines train, so a grid row trains it once for all of them.
func localReference() core.Strategy {
	return &core.SyncSGD{
		StrategyName: "Local",
		SyncTime:     func(*cluster.Cluster, *nn.Spec) float64 { return 0 },
	}
}

// fmtHours renders hours, marking non-converged runs like the paper's
// "X" entries.
func fmtHours(h float64, converged bool) string {
	if !converged {
		return fmt.Sprintf(">%s", formatFloat(h))
	}
	return formatFloat(h)
}

// ringBaseline returns the RING baseline, the ablation ladder's floor.
func ringBaseline() core.Strategy { return baselines.NewRing() }
