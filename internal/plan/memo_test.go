package plan

import (
	"fmt"
	"reflect"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/nn"
	"socflow/internal/simnet"
	"socflow/internal/tensor"
)

// The repo benchmark's sim-plan workload hashes these three searches
// into its result_digest; pinning them here makes a moved price a
// tier-1 failure rather than a benchmark surprise. The values predate
// the Pricer's memo, so they also hold it to the unmemoised arithmetic.
func TestSimPlanSearchesArePinned(t *testing.T) {
	for _, want := range []struct {
		socs       int
		epoch      float64
		plan       string
		candidates int
	}{
		{32, 0x1.32794b25bf4bap+09, "data n=16 k=2 b=64", 59},
		{128, 0x1.3d147b1216214p+07, "data n=64 k=2 b=64", 85},
		{512, 0x1.e79b13472bacep+05, "data n=256 k=2 b=64", 111},
	} {
		p, err := Search(simPlanOpts(want.socs))
		if err != nil {
			t.Fatal(err)
		}
		if p.EpochSeconds != want.epoch || p.DataEpochSeconds != want.epoch || p.String() != want.plan || p.Candidates != want.candidates {
			t.Errorf("%d SoCs: %s epoch %x data %x after %d candidates, want %s %x after %d",
				want.socs, p, p.EpochSeconds, p.DataEpochSeconds, p.Candidates, want.plan, want.epoch, want.candidates)
		}
	}
}

// scratchPricer is PricerFor(o) with no collective memo: every ring and
// broadcast window is priced by the package-level collective functions,
// each a fresh simulation.
func scratchPricer(o Options) *Pricer {
	pr := PricerFor(o)
	pr.net = nil
	return pr
}

// directBoundary simulates one stage-boundary crossing from scratch.
func directBoundary(clu *cluster.Cluster, a, b int, bytes float64) float64 {
	if a == b {
		return 0
	}
	return simnet.Simulate([]*simnet.Flow{
		clu.Flow("fwd", a, b, bytes, 0),
		clu.Flow("bwd", b, a, bytes, 0),
	})
}

// Every price the search computes on its one memoising Pricer must equal
// what a brand-new Pricer and a from-scratch pricing say, bit for bit:
// across fleet sizes that do and do not fill their PCBs, node sets with
// holes, throttled SoCs and every mode restriction.
func TestSearchPricesMatchFreshAndScratch(t *testing.T) {
	spec := nn.MustSpec("resnet34")
	model := spec.BuildMicro(tensor.NewRNG(1), 3, 8, 10)
	total := 0
	for _, socs := range []int{7, 8, 32, 33, 60, 128} {
		holes := make([]int, 0, socs)
		for soc := 0; soc < socs; soc++ {
			if soc%7 != 3 && soc != socs-2 {
				holes = append(holes, soc)
			}
		}
		for _, nodes := range [][]int{nil, holes} {
			for _, throttled := range [][]int{nil, {1}, {0, 4, 5, socs - 1}} {
				for _, only := range []Mode{"", ModeData, ModePipeline} {
					clu := cluster.New(cluster.Config{NumSoCs: socs})
					for i, soc := range throttled {
						clu.SetThrottle(soc, 0.5+0.1*float64(i))
					}
					o := Options{
						Spec: spec, Model: model, Cluster: clu, Nodes: nodes, Only: only,
						GlobalBatch: 16, Samples: 50_000, MaxGroups: socs / 2,
					}
					name := fmt.Sprintf("socs=%d nodes=%d throttled=%v only=%q", socs, len(nodes), throttled, only)
					priced := 0
					_, err := search(o, func(p *Plan, got float64) {
						priced++
						if fresh := PricerFor(o).EpochSeconds(p, o.Samples); fresh != got {
							t.Errorf("%s: %s: search priced %x, a fresh Pricer %x", name, p, got, fresh)
						}
						if scratch := scratchPricer(o).EpochSeconds(p, o.Samples); scratch != got {
							t.Errorf("%s: %s: search priced %x, from scratch %x", name, p, got, scratch)
						}
						if p.Mode != ModePipeline {
							return
						}
						mb := p.Batch / p.MicroBatches
						for g, members := range p.Placement {
							for i, x := range PricerFor(o).GroupTiming(p, g).XferSeconds {
								bytes := float64(p.Stages[i].OutElems) * DefaultActivationScale * 4 * float64(mb)
								if want := directBoundary(clu, members[i], members[i+1], bytes); x != want {
									t.Errorf("%s: %s: group %d boundary %d priced %x, simulated %x", name, p, g, i, x, want)
								}
							}
						}
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					total += priced
				}
			}
		}
	}
	if total < 2000 {
		t.Fatalf("the sweep compared %d candidates, want >= 2000", total)
	}
}

// DataTiming on one long-lived Pricer — what core.SoCFlow holds across
// epochs while the tidal trace preempts groups — must equal a
// from-scratch pricing under every active mask, including a whole
// communication group preempted and a single survivor.
func TestDataTimingMasksMatchScratch(t *testing.T) {
	o := Options{Spec: nn.MustSpec("vgg11"), NumSoCs: 33}
	clu := cluster.New(cluster.Config{NumSoCs: o.NumSoCs})
	o.Cluster = clu
	m := IntegrityGreedyMap(AllNodes(33), 11, clu.Config.SoCsPerPCB)
	cgs := m.CommunicationGroups()
	if len(cgs) < 2 {
		t.Fatalf("want a mapping with several communication groups, have %v", cgs)
	}
	compute := make([]float64, len(m.Groups))
	for g := range compute {
		compute[g] = 0.1 + 0.01*float64(g)
	}
	mask := func(off ...int) []bool {
		on := make([]bool, len(m.Groups))
		for g := range on {
			on[g] = true
		}
		for _, g := range off {
			on[g] = false
		}
		return on
	}
	allBut := func(keep int) []bool {
		on := make([]bool, len(m.Groups))
		on[keep] = true
		return on
	}
	warm := PricerFor(o)
	for round := 0; round < 2; round++ {
		for i, active := range [][]bool{nil, mask(0), mask(2, 5), mask(cgs[1]...), mask(cgs[0]...), allBut(3), make([]bool, len(m.Groups))} {
			got := warm.DataTiming(m.Groups, cgs, active, compute, 7)
			want := scratchPricer(o).DataTiming(m.Groups, cgs, active, compute, 7)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d mask %d: warm pricer %+v, from scratch %+v", round, i, got, want)
			}
		}
	}
}

// The memo must not freeze compute: core's strategies hold one Pricer
// across epochs while DVFS moves the throttles.
func TestPricerFollowsThrottle(t *testing.T) {
	for _, only := range []Mode{ModeData, ModePipeline} {
		o := searchOpts("resnet34", 16, 4, 8)
		o.Only = only
		o.Cluster = cluster.New(cluster.Config{NumSoCs: 16})
		p, err := Search(o)
		if err != nil {
			t.Fatal(err)
		}
		held := PricerFor(o)
		before := held.EpochSeconds(p, o.Samples)
		if before != p.EpochSeconds {
			t.Fatalf("%s: re-priced %x, searched %x", p, before, p.EpochSeconds)
		}
		o.Cluster.SetThrottle(p.Placement[0][0], 0.5)
		after := held.EpochSeconds(p, o.Samples)
		if want := PricerFor(o).EpochSeconds(p, o.Samples); after != want {
			t.Errorf("%s: held pricer says %x after the throttle moved, a fresh one %x", p, after, want)
		}
		if after <= before {
			t.Errorf("%s: halving a SoC's clock did not slow the epoch (%v -> %v)", p, before, after)
		}
	}
}
