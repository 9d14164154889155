package nn

import (
	"fmt"
	"sort"
	"sync"

	"socflow/internal/tensor"
)

// Spec describes one of the paper's evaluation models (Table 2) at
// paper scale. The performance track uses Params/ForwardGFLOPs to price
// communication volume and compute time on the simulated SoC-Cluster;
// the functional track trains the micro build so convergence behaviour
// is real.
type Spec struct {
	// Name is the canonical model name used across the repository.
	Name string
	// Params is the trainable-parameter count of the paper-scale model
	// (CIFAR-style input resolution).
	Params int64
	// ForwardGFLOPs is the forward-pass cost per sample at paper scale.
	// A training step is modeled as 3x forward (forward + ~2x backward),
	// the standard rule of thumb.
	ForwardGFLOPs float64
	// NPUSpeedup is the measured per-step speedup of INT8 training on
	// the Hexagon NPU over FP32 on the CPU, fitted per model to the
	// paper's Fig. 4(a) (VGG-11: 29.1h→7.5h, ResNet-18: 233h→36h).
	NPUSpeedup float64
	// EpochsToConverge is the typical number of epochs the paper-scale
	// model needs to reach its convergence accuracy with standard SGD,
	// used to translate per-epoch simulated time into end-to-end hours.
	EpochsToConverge int
	// BuildMicro constructs the micro (functionally trainable) variant
	// for the given input channels, square image size, and class count.
	// A nil r builds the geometry alone: every layer, shape and buffer
	// as a seeded build has them, every weight +0 and no RNG draw —
	// what a shape walk such as serve.LayerCosts needs.
	BuildMicro func(r *tensor.RNG, inC, imgSize, classes int) *Sequential
}

// GradBytes returns the FP32 gradient/weight payload exchanged per
// synchronization at paper scale.
func (s *Spec) GradBytes() int64 { return s.Params * 4 }

// zoo holds the model catalog (Table 2 of the paper).
var zoo = map[string]*Spec{
	"lenet5": {
		Name:             "lenet5",
		Params:           61_706,
		ForwardGFLOPs:    0.0009,
		NPUSpeedup:       3.6,
		EpochsToConverge: 30,
		BuildMicro:       buildLeNetMicro,
	},
	"vgg11": {
		Name:             "vgg11",
		Params:           10_500_000, // calibrated to Fig. 4(b): 42 MB ring payload
		ForwardGFLOPs:    0.154,
		NPUSpeedup:       3.88, // 29.1h / 7.5h
		EpochsToConverge: 40,
		BuildMicro:       buildVGGMicro,
	},
	"resnet18": {
		Name:             "resnet18",
		Params:           13_650_000, // calibrated to Fig. 4(b): 54.6 MB ring payload
		ForwardGFLOPs:    0.556,
		NPUSpeedup:       6.47, // 233h / 36h
		EpochsToConverge: 90,
		BuildMicro:       buildResNetMicro,
	},
	"resnet34": {
		Name:             "resnet34",
		Params:           21_280_000, // 85.1 MB ring payload, scaled from resnet18's calibration
		ForwardGFLOPs:    1.16,
		NPUSpeedup:       6.0,
		EpochsToConverge: 90,
		BuildMicro:       buildResNet34Micro,
	},
	"mobilenetv1": {
		Name:             "mobilenetv1",
		Params:           4_230_000,
		ForwardGFLOPs:    0.047,
		NPUSpeedup:       4.2,
		EpochsToConverge: 60,
		BuildMicro:       buildMobileNetMicro,
	},
	"resnet50": {
		Name:             "resnet50",
		Params:           25_600_000,
		ForwardGFLOPs:    1.3,
		NPUSpeedup:       5.0,
		EpochsToConverge: 12, // transfer learning: fine-tune only
		BuildMicro:       buildResNet50Micro,
	},
}

// zooMu guards zoo: the builtin catalog is extended at runtime by
// Register (the public socflow.RegisterModel API).
var zooMu sync.RWMutex

// Register adds a model to the catalog. The spec must carry a name, a
// positive parameter count and forward cost (the performance track
// prices communication and compute from them), and a micro builder.
// Registering a name twice — including a builtin — is an error, so the
// calibrated Table 2 entries cannot be shadowed.
func Register(s *Spec) error {
	switch {
	case s == nil || s.Name == "":
		return fmt.Errorf("nn: register: spec must have a name")
	case s.Params <= 0:
		return fmt.Errorf("nn: register %q: Params must be positive (paper-scale trainable parameters)", s.Name)
	case s.ForwardGFLOPs <= 0:
		return fmt.Errorf("nn: register %q: ForwardGFLOPs must be positive", s.Name)
	case s.NPUSpeedup <= 0:
		return fmt.Errorf("nn: register %q: NPUSpeedup must be positive", s.Name)
	case s.EpochsToConverge <= 0:
		return fmt.Errorf("nn: register %q: EpochsToConverge must be positive", s.Name)
	case s.BuildMicro == nil:
		return fmt.Errorf("nn: register %q: BuildMicro must be set", s.Name)
	}
	zooMu.Lock()
	defer zooMu.Unlock()
	if _, ok := zoo[s.Name]; ok {
		return fmt.Errorf("nn: register %q: already registered", s.Name)
	}
	zoo[s.Name] = s
	return nil
}

// GetSpec returns the spec for a catalog model.
func GetSpec(name string) (*Spec, error) {
	zooMu.RLock()
	s, ok := zoo[name]
	zooMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("nn: unknown model %q (have %v)", name, ModelNames())
	}
	return s, nil
}

// MustSpec is GetSpec that panics, for use in tests and benchmarks.
func MustSpec(name string) *Spec {
	s, err := GetSpec(name)
	if err != nil {
		panic(err)
	}
	return s
}

// ModelNames returns the sorted catalog names.
func ModelNames() []string {
	zooMu.RLock()
	defer zooMu.RUnlock()
	names := make([]string, 0, len(zoo))
	for n := range zoo {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildLeNetMicro mirrors LeNet-5's conv-pool-conv-pool-fc shape at
// micro scale.
func buildLeNetMicro(r *tensor.RNG, inC, imgSize, classes int) *Sequential {
	s := NewSequential(
		NewConv2D(r, inC, 6, 3, 1, 1),
		NewTanh(),
		NewMaxPool2D(2, 2),
		NewConv2D(r, 6, 12, 3, 1, 1),
		NewTanh(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
	)
	feat := 12 * (imgSize / 4) * (imgSize / 4)
	s.Add(NewDense(r, feat, classes))
	return s
}

// buildVGGMicro mirrors VGG-11's stacked 3x3-conv + maxpool plan with
// two stages and a small classifier head.
func buildVGGMicro(r *tensor.RNG, inC, imgSize, classes int) *Sequential {
	s := NewSequential(
		NewConv2D(r, inC, 8, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewConv2D(r, 8, 16, 3, 1, 1),
		NewReLU(),
		NewConv2D(r, 16, 16, 3, 1, 1),
		NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
	)
	feat := 16 * (imgSize / 4) * (imgSize / 4)
	s.Add(NewDense(r, feat, 32))
	s.Add(NewReLU())
	s.Add(NewDense(r, 32, classes))
	return s
}

// basicBlock builds a ResNet basic block (conv-bn-relu-conv-bn with
// skip), with a 1x1 projection shortcut when shape changes.
func basicBlock(r *tensor.RNG, inC, outC, stride int) *Residual {
	body := NewSequential(
		NewConv2D(r, inC, outC, 3, stride, 1),
		NewBatchNorm2D(outC),
		NewReLU(),
		NewConv2D(r, outC, outC, 3, 1, 1),
		NewBatchNorm2D(outC),
	)
	var shortcut *Sequential
	if stride != 1 || inC != outC {
		shortcut = NewSequential(
			NewConv2D(r, inC, outC, 1, stride, 0),
			NewBatchNorm2D(outC),
		)
	}
	return NewResidual(body, shortcut)
}

// buildResNetMicro mirrors ResNet-18's stem + basic-block + GAP plan.
func buildResNetMicro(r *tensor.RNG, inC, imgSize, classes int) *Sequential {
	_ = imgSize // GAP makes the head size-independent
	return NewSequential(
		NewConv2D(r, inC, 8, 3, 1, 1),
		NewBatchNorm2D(8),
		NewReLU(),
		basicBlock(r, 8, 8, 1),
		basicBlock(r, 8, 16, 2),
		NewGlobalAvgPool(),
		NewDense(r, 16, classes),
	)
}

// buildResNet34Micro mirrors ResNet-34's deeper basic-block plan at
// micro scale: a stride-2 stem then eight residual blocks. Thirteen
// top-level layers with near-uniform training cost, so the pipeline
// partitioner can cut it into up to thirteen balanced stages — this is
// the planner's deep-model workhorse.
func buildResNet34Micro(r *tensor.RNG, inC, imgSize, classes int) *Sequential {
	_ = imgSize
	return NewSequential(
		NewConv2D(r, inC, 8, 3, 2, 1),
		NewBatchNorm2D(8),
		NewReLU(),
		basicBlock(r, 8, 8, 1),
		basicBlock(r, 8, 8, 1),
		basicBlock(r, 8, 8, 1),
		basicBlock(r, 8, 16, 2),
		basicBlock(r, 16, 16, 1),
		basicBlock(r, 16, 16, 1),
		basicBlock(r, 16, 16, 1),
		basicBlock(r, 16, 16, 1),
		NewGlobalAvgPool(),
		NewDense(r, 16, classes),
	)
}

// buildResNet50Micro uses a slightly deeper residual plan standing in
// for the bottleneck network used in the transfer-learning scenario.
func buildResNet50Micro(r *tensor.RNG, inC, imgSize, classes int) *Sequential {
	_ = imgSize
	return NewSequential(
		NewConv2D(r, inC, 8, 3, 1, 1),
		NewBatchNorm2D(8),
		NewReLU(),
		basicBlock(r, 8, 8, 1),
		basicBlock(r, 8, 16, 2),
		basicBlock(r, 16, 16, 1),
		NewGlobalAvgPool(),
		NewDense(r, 16, classes),
	)
}

// sepBlock is a MobileNet depthwise-separable block:
// depthwise 3x3 + BN + ReLU, then pointwise 1x1 + BN + ReLU.
func sepBlock(r *tensor.RNG, inC, outC, stride int) *Sequential {
	return NewSequential(
		NewDepthwiseConv2D(r, inC, 3, stride, 1),
		NewBatchNorm2D(inC),
		NewReLU(),
		NewConv2D(r, inC, outC, 1, 1, 0),
		NewBatchNorm2D(outC),
		NewReLU(),
	)
}

// buildMobileNetMicro mirrors MobileNet-V1's depthwise-separable plan.
func buildMobileNetMicro(r *tensor.RNG, inC, imgSize, classes int) *Sequential {
	_ = imgSize
	return NewSequential(
		NewConv2D(r, inC, 16, 3, 1, 1),
		NewBatchNorm2D(16),
		NewReLU(),
		sepBlock(r, 16, 32, 1),
		sepBlock(r, 32, 32, 1),
		NewGlobalAvgPool(),
		NewDense(r, 32, classes),
	)
}
