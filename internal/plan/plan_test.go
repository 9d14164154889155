package plan

import (
	"reflect"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/nn"
)

func searchOpts(model string, socs, maxGroups, batch int) Options {
	return Options{
		Spec:        nn.MustSpec(model),
		NumSoCs:     socs,
		MaxGroups:   maxGroups,
		GlobalBatch: batch,
		Samples:     50_000,
	}
}

// The planner is a pure function of its options: equal inputs must
// return the identical plan, bit for bit. The runtime executes what
// the planner returns, so instability here would break the pipeline
// track's reproducibility guarantee. This test gates tier-1.
func TestSearchDeterministic(t *testing.T) {
	first, err := Search(searchOpts("resnet34", 16, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Search(searchOpts("resnet34", 16, 2, 8))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("search unstable:\n  first %+v\n  again %+v", first, again)
		}
	}
}

// A deep model on a sync-bound configuration — 8-SoC groups whose ring
// spans PCBs moving an 85 MB payload, with a small batch that floors
// per-SoC shares at one sample — is where pipelining pays: gradients
// never cross the wire per iteration. The planner must find that.
func TestSearchPicksPipelineWhenSyncBound(t *testing.T) {
	p, err := Search(searchOpts("resnet34", 8, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModePipeline {
		t.Fatalf("planner chose %v for the sync-bound deep model, want pipeline (epoch %.1fs vs data %.1fs)",
			p.Mode, p.EpochSeconds, p.DataEpochSeconds)
	}
	if p.EpochSeconds >= p.DataEpochSeconds {
		t.Fatalf("chosen plan (%.1fs) does not beat the best data-parallel candidate (%.1fs)",
			p.EpochSeconds, p.DataEpochSeconds)
	}
	if mb := p.Batch / p.MicroBatches; mb < 2 {
		t.Fatalf("micro-batch size %d violates the batch-norm floor", mb)
	}
}

// A tiny model with a sub-megabyte gradient payload is compute-bound:
// data parallelism splits the compute with near-zero sync cost, while
// a pipeline pays per-micro-batch dispatch overhead on every stage.
// The planner must not pipeline it.
func TestSearchPicksDataForSmallModel(t *testing.T) {
	p, err := Search(searchOpts("lenet5", 4, 1, 64))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != ModeData {
		t.Fatalf("planner chose %v for lenet5, want data (epoch %.2fs vs data %.2fs)",
			p.Mode, p.EpochSeconds, p.DataEpochSeconds)
	}
}

func TestSearchRespectsMaxGroups(t *testing.T) {
	p, err := Search(searchOpts("resnet18", 32, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if p.Groups() > 4 {
		t.Fatalf("plan uses %d groups, cap was 4", p.Groups())
	}
	// Every SoC appears exactly once across the placement.
	seen := map[int]int{}
	for _, members := range p.Placement {
		for _, soc := range members {
			seen[soc]++
		}
	}
	if len(seen) != 32 {
		t.Fatalf("placement covers %d of 32 SoCs", len(seen))
	}
	for soc, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("SoC %d placed %d times", soc, cnt)
		}
	}
}

// The plan the search hands back must re-price to exactly the epoch
// time the search recorded — prediction and execution share one
// pricer, and this is the contract that keeps them identical.
func TestChosenPlanRepricesIdentically(t *testing.T) {
	o := searchOpts("resnet34", 8, 1, 8)
	p, err := Search(o)
	if err != nil {
		t.Fatal(err)
	}
	clu := cluster.New(cluster.Config{NumSoCs: 8})
	got := p.EpochSecondsOn(clu, o.Spec, o.Samples)
	if got != p.EpochSeconds {
		t.Fatalf("re-priced epoch %.6fs != searched %.6fs", got, p.EpochSeconds)
	}
}

func TestSearchValidatesOptions(t *testing.T) {
	cases := []Options{
		{},                            // no spec
		{Spec: nn.MustSpec("lenet5")}, // no SoCs
		{Spec: nn.MustSpec("lenet5"), NumSoCs: 4, GlobalBatch: 0, Samples: 100}, // no batch
		{Spec: nn.MustSpec("lenet5"), NumSoCs: 4, GlobalBatch: 8},               // no samples
	}
	for i, o := range cases {
		if _, err := Search(o); err == nil {
			t.Fatalf("case %d: bad options accepted", i)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	good, err := Search(searchOpts("resnet34", 8, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.MicroBatches = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero micro-batches accepted")
	}
	bad = *good
	bad.Placement = [][]int{{0, 0, 1, 2, 3, 4, 5, 6}}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate SoC accepted")
	}
	bad = *good
	bad.Mode = ModeData
	if err := bad.Validate(); err == nil {
		t.Fatal("data mode with stages accepted")
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err == nil {
		t.Fatal("nil plan accepted")
	}
}

// The search's simulator-backed boundary pricing must charge more for
// stage boundaries that cross PCBs: a strided pipeline placement can
// never beat the contiguous one on epoch time.
func TestContiguousPipelineNoWorseThanStrided(t *testing.T) {
	spec := nn.MustSpec("resnet34")
	clu := cluster.New(cluster.Config{NumSoCs: 16})
	pr := NewPricer(clu, spec)
	base, err := Search(Options{Spec: spec, Cluster: clu, MaxGroups: 2, GlobalBatch: 8, Samples: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if base.Mode != ModePipeline {
		t.Skipf("planner chose %v; strided comparison needs a pipeline plan", base.Mode)
	}
	strided := *base
	strided.Placement = StridedMap(AllNodes(16), base.Groups(), clu.Config.SoCsPerPCB).Groups
	if pr.EpochSeconds(base, 50_000) > pr.EpochSeconds(&strided, 50_000) {
		t.Fatalf("contiguous pipeline (%.1fs) priced worse than strided (%.1fs)",
			pr.EpochSeconds(base, 50_000), pr.EpochSeconds(&strided, 50_000))
	}
}
