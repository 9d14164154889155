package plan

import (
	"math"
	"reflect"
	"testing"

	"socflow/internal/nn"
	"socflow/internal/serve"
	"socflow/internal/tensor"
)

// Validate must reject every malformed placement shape a re-plan or a
// hand-written WithPlan could produce: cross-group overlaps, IDs off
// the cluster, ragged groups, and pipeline depths the group cannot
// host.
func TestPlanValidateEdgeCases(t *testing.T) {
	good, err := Search(searchOpts("resnet34", 8, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if good.Mode != ModePipeline {
		t.Fatalf("fixture plan is %v, want pipeline", good.Mode)
	}

	check := func(name string, mutate func(p *Plan)) {
		t.Helper()
		bad := *good
		bad.Placement = append([][]int(nil), good.Placement...)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}

	check("overlap across groups", func(p *Plan) {
		p.Placement = [][]int{{0, 1, 2, 3}, {3, 4, 5, 6}}
		p.Stages = p.Stages[:2]
	})
	check("SoC beyond cluster", func(p *Plan) {
		p.Placement = [][]int{{0, 1, 2, 3, 4, 5, 6, 8}}
	})
	check("negative SoC", func(p *Plan) {
		p.Placement = [][]int{{-1, 1, 2, 3, 4, 5, 6, 7}}
	})
	check("ragged groups", func(p *Plan) {
		p.Placement = [][]int{{0, 1, 2, 3}, {4, 5, 6}}
	})
	check("depth exceeds group size", func(p *Plan) {
		p.Placement = [][]int{{0, 1}, {2, 3}}
		// Stages stay at the searched depth (> 2).
	})
	check("single-stage pipeline", func(p *Plan) {
		p.Stages = p.Stages[:1]
	})
	check("micro-batches exceed batch", func(p *Plan) {
		p.MicroBatches = p.Batch + 1
	})
	check("unknown mode", func(p *Plan) {
		p.Mode = Mode("tensor")
	})
	check("empty placement", func(p *Plan) {
		p.Placement = nil
	})
	// Stages are copied before a mutation so the fixture keeps its own.
	stages := func(p *Plan) []serve.Stage {
		p.Stages = append([]serve.Stage(nil), p.Stages...)
		return p.Stages
	}
	check("stage gap", func(p *Plan) { stages(p)[1].From++ })
	check("stage not from layer 0", func(p *Plan) { stages(p)[0].From = 1 })
	check("negative stage params", func(p *Plan) { stages(p)[0].Params = -1 })
	check("NaN stage FLOPs", func(p *Plan) { stages(p)[0].FLOPs = math.NaN() })
	check("stages hold no parameters", func(p *Plan) {
		for i := range stages(p) {
			p.Stages[i].Params = 0
		}
	})
	if err := good.Validate(); err != nil {
		t.Fatalf("a mutation leaked into the fixture: %v", err)
	}
	check("empty data group", func(p *Plan) {
		p.Mode, p.Stages, p.MicroBatches = ModeData, nil, 0
		p.Placement = [][]int{{0, 1, 2, 3}, {}}
	})

	// The integrity-greedy mapping of 3 groups on 8 SoCs is ragged, and
	// both the mesh and core.SoCFlow train it.
	ragged := Plan{NumSoCs: 8, Mode: ModeData, Batch: 16, Placement: IntegrityGreedyMap(AllNodes(8), 3, 5).Groups}
	if err := ragged.Validate(); err != nil {
		t.Fatalf("unequal data groups %v rejected: %v", ragged.Placement, err)
	}
}

// The search must clamp pipeline depth to the model's layer count: a
// shallow model on a wide group cannot yield more stages than layers.
func TestSearchDepthClampedToModelLayers(t *testing.T) {
	spec := nn.MustSpec("lenet5")
	layers := len(serve.LayerCosts(spec.BuildMicro(tensor.NewRNG(1), 3, 8, 10), 3, 8))
	o := searchOpts("lenet5", 32, 1, 64)
	o.Only = ModePipeline
	p, err := Search(o)
	if err != nil {
		t.Fatalf("no pipeline candidate for lenet5 on 32 SoCs: %v", err)
	}
	if p.Depth() > layers {
		t.Fatalf("depth %d exceeds the model's %d layers", p.Depth(), layers)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// A one-SoC fleet has no 2-member groups, so forcing pipeline mode
// must fail loudly rather than return an unexecutable plan.
func TestSearchPipelineInfeasibleOnTinyFleet(t *testing.T) {
	o := searchOpts("resnet34", 1, 0, 8)
	o.Only = ModePipeline
	if _, err := Search(o); err == nil {
		t.Fatal("pipeline plan returned for a 1-SoC fleet")
	}
}

// MinMicroBatch above the batch leaves no admissible micro-batch
// count; the pipeline candidates disappear and forcing the mode fails.
func TestSearchMicroBatchFloorExcludesPipeline(t *testing.T) {
	o := searchOpts("resnet34", 8, 1, 8)
	o.Only = ModePipeline
	o.MinMicroBatch = 16
	if _, err := Search(o); err == nil {
		t.Fatal("pipeline plan returned with an unsatisfiable micro-batch floor")
	}
}

func TestSearchNodesSubset(t *testing.T) {
	o := searchOpts("resnet34", 8, 1, 8)
	o.Nodes = []int{0, 1, 2, 4, 5, 7}
	p, err := Search(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumSoCs != 8 {
		t.Fatalf("subset plan carries NumSoCs %d, want the full cluster 8", p.NumSoCs)
	}
	allowed := map[int]bool{0: true, 1: true, 2: true, 4: true, 5: true, 7: true}
	placed := 0
	for _, members := range p.Placement {
		for _, soc := range members {
			if !allowed[soc] {
				t.Fatalf("plan places SoC %d, not in the surviving set", soc)
			}
			placed++
		}
	}
	if placed != 6 {
		t.Fatalf("plan places %d SoCs, want all 6 survivors", placed)
	}
}

// Node order must not matter: the subset is a set, and the search
// normalizes it so re-plans triggered from different death orders
// converge on the identical plan.
func TestSearchNodesOrderIndependent(t *testing.T) {
	a := searchOpts("resnet34", 8, 1, 8)
	a.Nodes = []int{7, 2, 0, 5, 1, 4}
	b := searchOpts("resnet34", 8, 1, 8)
	b.Nodes = []int{0, 1, 2, 4, 5, 7}
	pa, err := Search(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Search(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatalf("node order changed the plan:\n  %+v\n  %+v", pa, pb)
	}
}

func TestSearchNodesRejectsBadSubsets(t *testing.T) {
	for name, nodes := range map[string][]int{
		"empty":        {},
		"out of range": {0, 1, 8},
		"negative":     {-1, 0, 1},
		"duplicate":    {0, 1, 1, 2},
	} {
		o := searchOpts("resnet34", 8, 1, 8)
		o.Nodes = nodes
		if _, err := Search(o); err == nil {
			t.Fatalf("%s node set accepted", name)
		}
	}
}

// PricerFor must reproduce the search's own pricing exactly — the
// replan decision and the predicted==executed invariant both hang off
// this equality.
func TestPricerForMatchesSearch(t *testing.T) {
	o := searchOpts("resnet34", 8, 1, 8)
	p, err := Search(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := PricerFor(o).EpochSeconds(p, o.Samples); got != p.EpochSeconds {
		t.Fatalf("PricerFor re-priced %.9fs, search recorded %.9fs", got, p.EpochSeconds)
	}
	sub := o
	sub.Nodes = []int{0, 1, 2, 4, 5, 7}
	ps, err := Search(sub)
	if err != nil {
		t.Fatal(err)
	}
	if got := PricerFor(sub).EpochSeconds(ps, sub.Samples); got != ps.EpochSeconds {
		t.Fatalf("subset plan re-priced %.9fs, search recorded %.9fs", got, ps.EpochSeconds)
	}
}
