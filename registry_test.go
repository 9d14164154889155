package socflow

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"socflow/internal/nn"
	"socflow/internal/serve"
	"socflow/internal/tensor"
)

// tinyPlan is a valid micro architecture usable at every catalog
// geometry: conv → pool → flatten → MLP head. The wide flattened
// head gives it enough capacity to clear chance accuracy within a
// few epochs on the micro datasets.
func tinyPlan(inC, imgSize, classes int) []Layer {
	return []Layer{
		Conv2D(8, 3, 1, 1),
		ReLU(),
		MaxPool2D(2, 2),
		Flatten(),
		Dense(32),
		ReLU(),
		Dense(classes),
	}
}

func TestRegisterModelTrainsViaRun(t *testing.T) {
	const name = "tinynet-e2e"
	if err := RegisterModel(name, ModelSpec{
		Params:        80_000,
		ForwardGFLOPs: 0.002,
		Micro:         tinyPlan,
	}); err != nil {
		t.Fatal(err)
	}

	found := false
	for _, m := range Models() {
		if m == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered model missing from catalog %v", Models())
	}

	cfg := fastCfg("")
	cfg.Model = name
	cfg.Epochs = 3
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != name || len(rep.EpochAccuracies) != 3 {
		t.Fatalf("registered model did not train: %+v", rep)
	}
	if rep.BestAccuracy <= 0.1 {
		t.Fatalf("registered model did not learn: %v", rep.BestAccuracy)
	}

	// The unknown-model error keeps listing the registered name.
	cfg.Model = "no-such-model"
	_, err = Run(context.Background(), cfg)
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("want ErrUnknownModel, got %v", err)
	}
	if !strings.Contains(err.Error(), name) {
		t.Fatalf("unknown-model listing should include %q: %v", name, err)
	}
}

// TestRegisterModelEveryConstructor exercises the DSL constructors the
// main test's plan omits — DepthwiseConv2D, BatchNorm, Tanh,
// GlobalAvgPool — and checks the materialized model trains end to end.
func TestRegisterModelEveryConstructor(t *testing.T) {
	const name = "tinynet-dsl"
	err := RegisterModel(name, ModelSpec{
		Params:        50_000,
		ForwardGFLOPs: 0.001,
		Micro: func(inC, imgSize, classes int) []Layer {
			return []Layer{
				Conv2D(6, 3, 1, 1),
				BatchNorm(),
				Tanh(),
				MaxPool2D(2, 2),
				DepthwiseConv2D(3, 1, 1),
				ReLU(),
				GlobalAvgPool(),
				Dense(16),
				ReLU(),
				Dense(classes),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGeometryBuild(t, nn.MustSpec(name))
	cfg := fastCfg("")
	cfg.Model = name
	cfg.Epochs = 2
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

// checkGeometryBuild holds a registered model's nil-RNG build (the
// planner's layer-cost walk builds no weights) to a seeded build's
// geometry: equal layer costs and parameter shapes, drawn weights +0,
// every other parameter as seeded.
func checkGeometryBuild(t *testing.T, spec *nn.Spec) {
	t.Helper()
	seeded, bare := spec.BuildMicro(tensor.NewRNG(1), 3, 8, 10), spec.BuildMicro(nil, 3, 8, 10)
	if got, want := serve.LayerCosts(bare, 3, 8), serve.LayerCosts(seeded, 3, 8); !reflect.DeepEqual(got, want) {
		t.Errorf("layer costs of the nil-RNG build %+v, seeded %+v", got, want)
	}
	sp, bp := seeded.Params(), bare.Params()
	if len(sp) != len(bp) {
		t.Fatalf("%d params, seeded %d", len(bp), len(sp))
	}
	for i, p := range bp {
		s := sp[i]
		if p.Name != s.Name || !slices.Equal(p.W.Shape, s.W.Shape) {
			t.Fatalf("param %d is %s%v, seeded %s%v", i, p.Name, p.W.Shape, s.Name, s.W.Shape)
		}
		for j, v := range p.W.Data {
			want := s.W.Data[j]
			if strings.HasSuffix(p.Name, ".w") {
				want = 0
			}
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("%s[%d] = %v in the nil-RNG build, want %v", p.Name, j, v, want)
			}
		}
	}
}

func TestRegisterModelRejections(t *testing.T) {
	valid := ModelSpec{Params: 1000, ForwardGFLOPs: 0.001, Micro: tinyPlan}
	cases := []struct {
		name string
		id   string
		spec ModelSpec
	}{
		{"empty name", "", valid},
		{"nil micro", "r1", ModelSpec{Params: 1000, ForwardGFLOPs: 0.001}},
		{"zero params", "r2", ModelSpec{ForwardGFLOPs: 0.001, Micro: tinyPlan}},
		{"zero gflops", "r3", ModelSpec{Params: 1000, Micro: tinyPlan}},
		{"negative speedup", "r4", ModelSpec{Params: 1000, ForwardGFLOPs: 0.001, NPUSpeedup: -1, Micro: tinyPlan}},
		{"builtin shadow", "lenet5", valid},
		{"dense before flatten", "r5", ModelSpec{Params: 1000, ForwardGFLOPs: 0.001,
			Micro: func(inC, imgSize, classes int) []Layer {
				return []Layer{Conv2D(4, 3, 1, 1), Dense(classes)}
			}}},
		{"window too large", "r6", ModelSpec{Params: 1000, ForwardGFLOPs: 0.001,
			Micro: func(inC, imgSize, classes int) []Layer {
				return []Layer{Conv2D(4, 16, 1, 0), GlobalAvgPool(), Dense(classes)}
			}}},
		{"conv after flatten", "r7", ModelSpec{Params: 1000, ForwardGFLOPs: 0.001,
			Micro: func(inC, imgSize, classes int) []Layer {
				return []Layer{Flatten(), Conv2D(4, 3, 1, 1), Dense(classes)}
			}}},
		{"wrong head width", "r8", ModelSpec{Params: 1000, ForwardGFLOPs: 0.001,
			Micro: func(inC, imgSize, classes int) []Layer {
				return []Layer{Conv2D(4, 3, 1, 1), GlobalAvgPool(), Dense(7)}
			}}},
		{"no head", "r9", ModelSpec{Params: 1000, ForwardGFLOPs: 0.001,
			Micro: func(inC, imgSize, classes int) []Layer {
				return []Layer{Conv2D(4, 3, 1, 1), ReLU()}
			}}},
		{"empty plan", "r10", ModelSpec{Params: 1000, ForwardGFLOPs: 0.001,
			Micro: func(inC, imgSize, classes int) []Layer { return nil }}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := RegisterModel(c.id, c.spec)
			if err == nil {
				t.Fatal("want rejection")
			}
			if !errors.Is(err, ErrBadModelSpec) {
				t.Fatalf("want errors.Is(ErrBadModelSpec), got %v", err)
			}
		})
	}
}

func TestRegisterModelDuplicate(t *testing.T) {
	spec := ModelSpec{Params: 1000, ForwardGFLOPs: 0.001, Micro: tinyPlan}
	if err := RegisterModel("tinynet-dup", spec); err != nil {
		t.Fatal(err)
	}
	if err := RegisterModel("tinynet-dup", spec); !errors.Is(err, ErrBadModelSpec) {
		t.Fatalf("duplicate registration must fail with ErrBadModelSpec, got %v", err)
	}
}
