package plan

import (
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/nn"
	"socflow/internal/simnet"
)

// simPlanOpts are the options socflow.PlanParallelism derives for the
// repo benchmark's sim-plan workload: resnet34 at paper batch 64 over
// cifar10's paper-scale epoch, group count capped at half the fleet.
func simPlanOpts(numSoCs int) Options {
	return Options{
		Spec:        nn.MustSpec("resnet34"),
		Cluster:     cluster.New(cluster.Config{NumSoCs: numSoCs}),
		GlobalBatch: 64,
		Samples:     50_000,
		MaxGroups:   numSoCs / 2,
	}
}

var benchSink float64

func benchmarkSearch(b *testing.B, numSoCs int) {
	opts := simPlanOpts(numSoCs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Search(opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p.EpochSeconds
	}
}

func BenchmarkSearch32(b *testing.B)  { benchmarkSearch(b, 32) }
func BenchmarkSearch128(b *testing.B) { benchmarkSearch(b, 128) }
func BenchmarkSearch512(b *testing.B) { benchmarkSearch(b, 512) }

// BenchmarkPricerEpochSeconds re-prices the 128-SoC winner on one
// Pricer: what core's strategies and the elastic re-planner pay per
// epoch, and the ladder's plan.price_us_per_candidate.
func BenchmarkPricerEpochSeconds(b *testing.B) {
	opts := simPlanOpts(128)
	winner, err := Search(opts)
	if err != nil {
		b.Fatal(err)
	}
	pr := PricerFor(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = pr.EpochSeconds(winner, opts.Samples)
	}
}

// TestPricerWarmAllocs bounds what re-pricing a plan costs once the
// Pricer has seen it: every network term comes from the memo, so only
// the live compute terms, DataTiming's returned CGSync and — for a data
// plan — the placement's conflict colouring remain. The colouring is
// not a simulated term and no hot loop re-prices a data plan (SoCFlow
// colours once per run), so it is recomputed per call and counted
// apart. The parent re-simulated every window: 362 allocations for this
// data plan, 162 for the pipeline.
func TestPricerWarmAllocs(t *testing.T) {
	for _, only := range []Mode{ModeData, ModePipeline} {
		opts := simPlanOpts(32)
		opts.Only = only
		winner, err := Search(opts)
		if err != nil {
			t.Fatal(err)
		}
		budget := 8.0
		if only == ModeData {
			m := Mapping{Groups: winner.Placement, SoCsPerPCB: opts.Cluster.Config.SoCsPerPCB}
			budget += testing.AllocsPerRun(20, func() { m.CommunicationGroups() })
		}
		pr := PricerFor(opts)
		want := pr.EpochSeconds(winner, opts.Samples)
		avg := testing.AllocsPerRun(20, func() {
			if got := pr.EpochSeconds(winner, opts.Samples); got != want {
				t.Fatalf("warm re-price %v != first price %v", got, want)
			}
		})
		if avg > budget {
			t.Errorf("%s: warm EpochSeconds allocates %.0f objects/run, want <= %.0f", winner, avg, budget)
		}
	}
}

// TestSearchSimulatesEachShapeOnce holds the delta-simulation property
// as an exactly repeating count: the flows simnet actually simulates
// for the 512-SoC sim-plan search. The parent simulated 85,528 (every
// cross-group ring once per micro-batch count, every group's solo ring,
// every group's broadcast); what remains is 11,983 — one combined
// window per communication group, one ring or broadcast per distinct
// (shape, payload), one boundary per (same PCB?, bytes).
func TestSearchSimulatesEachShapeOnce(t *testing.T) {
	opts := simPlanOpts(512)
	before := simnet.SnapshotStats()
	if _, err := Search(opts); err != nil {
		t.Fatal(err)
	}
	if flows := simnet.SnapshotStats().Delta(before).Flows; flows > 12_000 {
		t.Errorf("512-SoC search simulated %d flows, want <= 12000", flows)
	}
}
