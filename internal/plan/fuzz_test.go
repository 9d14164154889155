package plan

import (
	"strconv"
	"testing"

	"socflow/internal/nn"
	"socflow/internal/serve"
)

// fuzzPlan builds a plan from fuzz bytes. layout lists SoC IDs as
// signed bytes, 0xFF closing a group; stages gives four bytes per stage
// (From, To, a FLOPs and a Params scale); modes 0 and 1 are data and
// pipeline, anything else an unknown mode.
func fuzzPlan(numSoCs uint8, mode uint8, batch, micro int, layout, stages []byte) *Plan {
	p := &Plan{NumSoCs: int(numSoCs), Batch: batch, MicroBatches: micro}
	switch mode % 3 {
	case 0:
		p.Mode = ModeData
	case 1:
		p.Mode = ModePipeline
	default:
		p.Mode = "bogus"
	}
	group := []int{}
	for _, b := range layout {
		if b == 0xFF {
			p.Placement = append(p.Placement, group)
			group = []int{}
			continue
		}
		group = append(group, int(int8(b)))
	}
	if len(group) > 0 {
		p.Placement = append(p.Placement, group)
	}
	for i := 0; i+4 <= len(stages); i += 4 {
		p.Stages = append(p.Stages, serve.Stage{
			From: int(int8(stages[i])), To: int(int8(stages[i+1])),
			FLOPs: float64(stages[i+2]) * 1e7, Params: int64(stages[i+3]) * 1e4,
			OutElems: 64 * int(stages[i]),
		})
	}
	return p
}

// Validate never panics, and every plan it accepts prices through the
// planner's own Pricer without a panic — on the plan's cluster, or when
// the plan names no size, on the smallest cluster holding its SoCs.
func FuzzPlanValidate(f *testing.F) {
	// A data plan of two 4-SoC groups and a 2-group, 2-stage pipeline.
	f.Add(uint8(8), uint8(0), 16, 0, []byte{0, 1, 2, 3, 0xFF, 4, 5, 6, 7}, []byte{})
	f.Add(uint8(8), uint8(1), 8, 4, []byte{0, 2, 4, 6, 0xFF, 1, 3, 5, 7}, []byte{0, 9, 40, 30, 10, 20, 60, 90})
	// Four groups at a batch of a quarter of int's range: their product
	// overflowed to 0 and the iteration count divided by it.
	f.Add(uint8(8), uint8(0), 1<<(strconv.IntSize-2), 0, []byte{0, 0xFF, 1, 0xFF, 2, 0xFF, 3}, []byte{})
	spec := nn.MustSpec("resnet34")
	f.Fuzz(func(t *testing.T, numSoCs uint8, mode uint8, batch, micro int, layout, stages []byte) {
		p := fuzzPlan(numSoCs, mode, batch, micro, layout, stages)
		if p.Validate() != nil {
			return
		}
		socs := p.NumSoCs
		if socs == 0 {
			for _, g := range p.Placement {
				for _, soc := range g {
					socs = max(socs, soc+1)
				}
			}
		}
		PricerFor(Options{Spec: spec, NumSoCs: socs}).EpochSeconds(p, 50_000)
	})
}
