package serve

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/parallel"
	"socflow/internal/tensor"
)

func testEngine(t *testing.T, stages, socs int) (*Engine, *dataset.Dataset) {
	t.Helper()
	spec, err := nn.GetSpec("lenet5")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := dataset.GetProfile("fmnist")
	if err != nil {
		t.Fatal(err)
	}
	ds := prof.Generate(dataset.GenOptions{Samples: 64, Seed: 7})
	model := spec.BuildMicro(tensor.NewRNG(7), ds.Channels(), ds.ImageSize(), ds.Classes)
	clu := cluster.New(cluster.Config{NumSoCs: socs})
	e, err := NewEngine(EngineConfig{
		Spec: spec, Model: model, Cluster: clu, Stages: stages,
		InC: ds.Channels(), ImgSize: ds.ImageSize(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

func TestLayerCostsAndPartitionBalance(t *testing.T) {
	spec, _ := nn.GetSpec("lenet5")
	model := spec.BuildMicro(tensor.NewRNG(1), 1, 8, 10)
	costs := LayerCosts(model, 1, 8)
	if len(costs) != len(model.Layers) {
		t.Fatalf("got %d costs for %d layers", len(costs), len(model.Layers))
	}
	total := 0.0
	for _, c := range costs {
		if c.FLOPs < 0 || c.OutElems <= 0 {
			t.Fatalf("layer %d (%s): bad cost %+v", c.Index, c.Name, c)
		}
		total += c.FLOPs
	}
	if total <= 0 {
		t.Fatal("model priced at zero FLOPs")
	}

	for _, n := range []int{1, 2, 3} {
		st, err := Partition(costs, n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		if len(st) != n {
			t.Fatalf("Partition(%d) gave %d stages", n, len(st))
		}
		// Stages must tile the layer range contiguously.
		if st[0].From != 0 || st[n-1].To != len(costs)-1 {
			t.Fatalf("stages don't span the model: %+v", st)
		}
		for i := 1; i < n; i++ {
			if st[i].From != st[i-1].To+1 {
				t.Fatalf("stages not contiguous at %d: %+v", i, st)
			}
		}
	}

	// Splitting must not beat the single-stage bottleneck, and a split
	// must strictly improve on it for this multi-block model.
	one, _ := Partition(costs, 1)
	two, _ := Partition(costs, 2)
	worst := func(st []Stage) float64 {
		w := 0.0
		for _, s := range st {
			if v := s.FLOPs + paramFLOPWeight*float64(s.Params); v > w {
				w = v
			}
		}
		return w
	}
	if worst(two) >= worst(one) {
		t.Fatalf("2-way split bottleneck %v not below 1-way %v", worst(two), worst(one))
	}

	if _, err := Partition(costs, len(costs)+1); err == nil {
		t.Fatal("partitioning into more stages than layers must fail")
	}
	if _, err := Partition(costs, 0); err == nil {
		t.Fatal("zero stages must fail")
	}
}

func TestEngineTimingModel(t *testing.T) {
	e, _ := testEngine(t, 2, 8)
	p := e.Price(8)
	st, xf := p.Stages, p.Transfers
	if len(st) != 2 {
		t.Fatalf("want 2 stage times, got %v", st)
	}
	for _, v := range st {
		if v <= 0 {
			t.Fatalf("non-positive stage time: %v", st)
		}
	}
	if len(xf) != 1 || xf[0] <= 0 {
		t.Fatalf("want one positive transfer, got %v", xf)
	}
	if want := st[0] + st[1] + xf[0]; p.Latency != want {
		t.Fatalf("latency %v != stages+transfers %v", p.Latency, want)
	}
	if want := max(st[0], st[1], xf[0]); p.Bottleneck != want {
		t.Fatalf("bottleneck %v != the slowest stage or transfer %v", p.Bottleneck, want)
	}
	if bn, lat := p.Bottleneck, p.Latency; bn >= lat || bn <= 0 {
		t.Fatalf("bottleneck %v should be positive and below full latency %v", bn, lat)
	}
	// Bigger batches take longer.
	lat8 := p.Latency
	if e.Price(16).Latency <= lat8 || e.Price(1).Latency >= lat8 {
		t.Fatal("latency must grow with batch size")
	}
	// One stage has no boundary to price.
	e1, _ := testEngine(t, 1, 8)
	if p1 := e1.Price(8); len(p1.Transfers) != 0 || p1.Latency != p1.Stages[0] || p1.Bottleneck != p1.Stages[0] {
		t.Fatalf("one stage: %+v", p1)
	}
}

// Pricing a batch allocates nothing, and simulates each hand-off once.
func TestEnginePriceZeroAlloc(t *testing.T) {
	e, _ := testEngine(t, 3, 8)
	before := e.clu.NetStats().Flows
	e.Price(4)
	if got := e.clu.NetStats().Flows - before; got != 2 {
		t.Fatalf("one Price of a 3-stage engine simulated %d flows, want 2", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Price(5) }); allocs != 0 {
		t.Fatalf("Price allocates %v per call, want 0", allocs)
	}
}

// The serving forward is the zero-alloc steady state: after warmup,
// Predict reuses the model's persistent layer buffers, the fused plan,
// and the argmax buffer — at one pool worker and at four, whatever the
// host has.
func TestEnginePredictZeroAlloc(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.Set(workers)
			defer parallel.Set(prev)
			e, ds := testEngine(t, 2, 8)
			x, _ := ds.Batch([]int{0, 1, 2, 3})
			// Warmup builds every persistent buffer and, at this width,
			// the pool's workers: AllocsPerRun measures under GOMAXPROCS(1).
			e.Predict(x)
			allocs := testing.AllocsPerRun(10, func() { e.Predict(x) })
			if allocs > 0 {
				t.Fatalf("Predict steady state allocates %v times per call, want 0", allocs)
			}
		})
	}
}

func TestBatcherEmptyFlushOnTimer(t *testing.T) {
	b, err := NewBatcher(BatcherConfig{MaxBatch: 4, MaxDelay: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Flush(5.0); got != nil {
		t.Fatalf("empty flush returned %v", got)
	}
	if _, ok := b.DueAt(); ok {
		t.Fatal("empty batcher reported a due time")
	}
}

// A request that would finish exactly at its deadline is admitted: the
// SLO bound is inclusive on both admission and completion.
func TestBatcherDeadlineBoundary(t *testing.T) {
	b, _ := NewBatcher(BatcherConfig{MaxBatch: 4, MaxDelay: 0.01})
	r := Request{ID: 1, Arrival: 10, Deadline: 10.5}
	if !b.Admit(r, 10, 0.5) {
		t.Fatal("request finishing exactly at its deadline must be admitted")
	}
	if b.Admit(Request{ID: 2, Arrival: 10, Deadline: 10.5}, 10, 0.5000001) {
		t.Fatal("request past its deadline must be shed")
	}
	if b.Shed() != 1 {
		t.Fatalf("shed count %d, want 1", b.Shed())
	}
}

func TestBatcherFlushSmallerQueue(t *testing.T) {
	b, _ := NewBatcher(BatcherConfig{MaxBatch: 8, MaxDelay: 0.01})
	for i := 0; i < 3; i++ {
		b.Admit(Request{ID: i, Arrival: float64(i), Deadline: 100}, float64(i), 0)
	}
	got := b.Flush(10)
	if len(got) != 3 {
		t.Fatalf("flush of 3-deep queue with MaxBatch 8 gave %d", len(got))
	}
	if b.Len() != 0 {
		t.Fatalf("queue not drained: %d left", b.Len())
	}
}

func TestBatcherEDFOrderAndOverflow(t *testing.T) {
	b, _ := NewBatcher(BatcherConfig{MaxBatch: 2, MaxDelay: 0.01})
	// Admission order is not deadline order.
	b.Admit(Request{ID: 0, Arrival: 0, Deadline: 30}, 0, 0)
	b.Admit(Request{ID: 1, Arrival: 1, Deadline: 10}, 1, 0)
	b.Admit(Request{ID: 2, Arrival: 2, Deadline: 20}, 2, 0)
	first := b.Flush(3)
	if len(first) != 2 || first[0].ID != 1 || first[1].ID != 2 {
		t.Fatalf("EDF flush picked %v, want IDs [1 2]", first)
	}
	rest := b.Flush(3)
	if len(rest) != 1 || rest[0].ID != 0 {
		t.Fatalf("second flush %v, want ID 0", rest)
	}
}

func TestBatcherCancellationMidQueue(t *testing.T) {
	b, _ := NewBatcher(BatcherConfig{MaxBatch: 4, MaxDelay: 0.01})
	ctx, cancel := context.WithCancel(context.Background())
	b.Admit(Request{ID: 0, Arrival: 0, Deadline: 10, Ctx: ctx}, 0, 0)
	b.Admit(Request{ID: 1, Arrival: 0, Deadline: 10}, 0, 0)
	cancel() // abandoned while queued
	got := b.Flush(1)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("flush served %v, want only ID 1", got)
	}
	if b.Canceled() != 1 {
		t.Fatalf("canceled count %d, want 1", b.Canceled())
	}

	// A queue that is entirely canceled flushes to nothing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	b.Admit(Request{ID: 2, Arrival: 1, Deadline: 10, Ctx: ctx2}, 1, 0)
	cancel2()
	if got := b.Flush(2); got != nil {
		t.Fatalf("fully-canceled queue flushed %v", got)
	}
	if b.Canceled() != 2 {
		t.Fatalf("canceled count %d, want 2", b.Canceled())
	}
}

func TestBatcherConfigValidation(t *testing.T) {
	if _, err := NewBatcher(BatcherConfig{MaxBatch: 0, MaxDelay: 0.01}); err == nil {
		t.Fatal("MaxBatch 0 must be rejected")
	}
	if _, err := NewBatcher(BatcherConfig{MaxBatch: 1, MaxDelay: -1}); err == nil {
		t.Fatal("negative MaxDelay must be rejected")
	}
}

func TestLoadGenDeterministicAndTidal(t *testing.T) {
	g := LoadGen{
		Trace:   cluster.DefaultTidalTrace(),
		PeakRPS: 5,
		SLO:     0.5,
		Samples: 64,
		Seed:    42,
	}
	a := g.Arrivals(12, 1)
	b := g.Arrivals(12, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give the same arrival stream")
	}
	if len(a) == 0 {
		t.Fatal("peak-hour window generated no arrivals")
	}
	for i, r := range a {
		if r.Deadline != r.Arrival+g.SLO {
			t.Fatalf("request %d deadline %v != arrival+SLO", i, r.Deadline)
		}
		if i > 0 && r.Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		if r.Sample < 0 || r.Sample >= 64 {
			t.Fatalf("sample index %d out of range", r.Sample)
		}
	}

	// The tide: a midday window must carry far more traffic than the
	// night trough.
	night := g.Arrivals(3, 1)
	if len(night)*4 >= len(a) {
		t.Fatalf("trough traffic %d not well below peak %d", len(night), len(a))
	}

	if got := (LoadGen{PeakRPS: 0}).Arrivals(0, 1); got != nil {
		t.Fatalf("zero-rate generator produced %d arrivals", len(got))
	}
}

// Deterministic end to end: the same seeded arrival stream replayed
// twice gives bit-identical serving results under -race.
func TestReplayDeterministic(t *testing.T) {
	e, ds := testEngine(t, 2, 8)
	g := LoadGen{Trace: cluster.DefaultTidalTrace(), PeakRPS: 10, SLO: 0.5, Samples: ds.Len(), Seed: 3}
	reqs := g.Arrivals(14, 0.2)
	cfg := ReplayConfig{Batcher: BatcherConfig{MaxBatch: 8, MaxDelay: 0.05}, Replicas: 2, Data: ds}
	r1, err := Replay(e, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(e, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("replay not deterministic:\n%+v\n%+v", r1, r2)
	}
	if r1.Requests != len(reqs) || r1.Served+r1.Shed != r1.Requests {
		t.Fatalf("request accounting off: %+v", r1)
	}
	if r1.Batches == 0 || r1.P50Seconds <= 0 || r1.P99Seconds < r1.P50Seconds {
		t.Fatalf("implausible latency summary: %+v", r1)
	}
}

// A request's latency splits into its queue time, each stage's compute
// and each boundary's transfer: replayed alone, every request of a
// stream observes parts whose sum, taken as Pricing.Latency sums them,
// is its serve.latency.seconds observation to within the rounding of
// the two ways of adding (now + latency − arrival against now −
// arrival + latency: a few ulps of the finish time). Replayed together,
// every histogram counts each served request once.
func TestReplayLatencySplit(t *testing.T) {
	e, ds := testEngine(t, 3, 8)
	g := LoadGen{Trace: cluster.DefaultTidalTrace(), PeakRPS: 10, SLO: 0.5, Samples: ds.Len(), Seed: 3}
	reqs := g.Arrivals(14, 0.2)
	cfg := ReplayConfig{Batcher: BatcherConfig{MaxBatch: 8, MaxDelay: 0.05}, Replicas: 2}
	parts := []string{"serve.queue.seconds", "serve.stage0.compute.seconds", "serve.stage1.compute.seconds",
		"serve.stage2.compute.seconds", "serve.boundary0.transfer.seconds", "serve.boundary1.transfer.seconds"}
	for _, r := range reqs {
		cfg.Metrics = metrics.New()
		if _, err := Replay(e, []Request{r}, cfg); err != nil {
			t.Fatal(err)
		}
		h := cfg.Metrics.Snapshot().Histograms
		lat := h["serve.latency.seconds"]
		sum := h[parts[0]].Sum
		for _, name := range parts[1:] {
			if h[name].Count != 1 {
				t.Fatalf("request %d: %s counted %d times", r.ID, name, h[name].Count)
			}
		}
		latency := 0.0
		for _, name := range parts[1:] {
			latency += h[name].Sum
		}
		sum += latency
		finish := r.Arrival + lat.Sum
		if lat.Count != 1 || math.Abs(sum-lat.Sum) > 4*ulp(finish) {
			t.Fatalf("request %d: queue + compute + transfer = %v, latency %v", r.ID, sum, lat.Sum)
		}
	}
	cfg.Metrics = metrics.New()
	res, err := Replay(e, reqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := cfg.Metrics.Snapshot().Histograms
	var sum float64
	for _, name := range parts {
		if h[name].Count != int64(res.Served) {
			t.Fatalf("%s counted %d of %d served requests", name, h[name].Count, res.Served)
		}
		sum += h[name].Sum
	}
	if lat := h["serve.latency.seconds"].Sum; math.Abs(sum-lat) > 1e-9*lat {
		t.Fatalf("the split sums to %v, the latencies to %v", sum, lat)
	}
}

// ulp is the spacing of float64s at x.
func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// At the night trough with generous SLOs, attainment must clear the
// co-location experiment's 99% bar.
func TestReplayLowTideAttainment(t *testing.T) {
	e, ds := testEngine(t, 2, 8)
	g := LoadGen{Trace: cluster.DefaultTidalTrace(), PeakRPS: 20, SLO: 0.5, Samples: ds.Len(), Seed: 5}
	reqs := g.Arrivals(3, 1) // 3am: ~5% of peak traffic
	reg := metrics.New()
	res, err := Replay(e, reqs, ReplayConfig{
		Batcher:  BatcherConfig{MaxBatch: 8, MaxDelay: 0.02},
		Replicas: 1,
		Metrics:  reg,
		Data:     ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attainment < 0.99 {
		t.Fatalf("low-tide attainment %.4f < 0.99 (%+v)", res.Attainment, res)
	}
	rep := reg.Snapshot()
	if rep.Counters["serve.requests"] != int64(res.Requests) ||
		rep.Counters["serve.served"] != int64(res.Served) {
		t.Fatalf("serve.* counters disagree with result: %+v vs %+v", rep.Counters, res)
	}
	if rep.Gauges["serve.slo.attainment"] != res.Attainment {
		t.Fatalf("attainment gauge %v != %v", rep.Gauges["serve.slo.attainment"], res.Attainment)
	}
	if _, ok := rep.Histograms["serve.latency.seconds"]; !ok {
		t.Fatal("latency histogram missing from registry")
	}
}

// Overload sheds: a burst far past the pipeline's throughput must trip
// shed-on-hopeless admission instead of queuing unboundedly.
func TestReplayOverloadSheds(t *testing.T) {
	e, _ := testEngine(t, 2, 8)
	var reqs []Request
	for i := 0; i < 400; i++ {
		t := float64(i) * 0.0005 // 2000 rps at a ~50ms/batch pipeline
		reqs = append(reqs, Request{ID: i, Arrival: t, Deadline: t + 0.1, Sample: i % 8})
	}
	res, err := Replay(e, reqs, ReplayConfig{
		Batcher:  BatcherConfig{MaxBatch: 8, MaxDelay: 0.005},
		Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("overload shed nothing: %+v", res)
	}
	if res.Served+res.Shed != res.Requests {
		t.Fatalf("accounting: %+v", res)
	}
}
