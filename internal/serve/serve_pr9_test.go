package serve

import (
	"math"
	"reflect"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/nn"
	"socflow/internal/tensor"
)

// Regression: a zero-value TidalTrace used to make the thinning
// probability 0/0 = NaN, and `rng.Float64() >= NaN` is always false —
// every envelope arrival was silently kept at full peak rate. A trace
// that never goes busy must generate no load at all.
func TestLoadGenZeroTraceGeneratesNothing(t *testing.T) {
	g := LoadGen{PeakRPS: 50, SLO: 0.5, Samples: 8, Seed: 1}
	got := g.Arrivals(12, 1)
	if len(got) != 0 {
		t.Fatalf("zero-value trace produced %d arrivals (full-peak NaN-thinning bug)", len(got))
	}
}

// A trace with PeakBusy left unset but a live curve must derive the
// peak from the curve, not keep everything. With PeakBusy=0 and
// TroughBusy=0.02 the diurnal blend inverts — the curve maxes out at
// night — so the derived peak is the night value: the night hour rides
// near the full envelope rate while midday is thinned hard. Before the
// fix both windows kept every envelope arrival.
func TestLoadGenDerivesPeakFromTrace(t *testing.T) {
	g := LoadGen{
		Trace:   cluster.TidalTrace{PeakBusy: 0, TroughBusy: 0.02},
		PeakRPS: 20, SLO: 0.5, Samples: 8, Seed: 9,
	}
	night := g.Arrivals(3, 1) // the inverted curve's busiest hour
	day := g.Arrivals(14, 1)
	envelope := 20.0 * 3600
	if float64(len(night)) < envelope/2 {
		t.Fatalf("busiest hour kept %d of ~%v envelope arrivals; derived peak is off", len(night), envelope)
	}
	if len(day) == 0 || len(day)*4 >= len(night) {
		t.Fatalf("derived peak lost the curve: day %d vs night %d", len(day), len(night))
	}
}

// FlushInto with a warmed reusable buffer must not allocate: the
// insertion-sorted EDF dequeue and the caller-owned batch slice are the
// documented zero-alloc steady state.
func TestBatcherFlushIntoZeroAlloc(t *testing.T) {
	b, err := NewBatcher(BatcherConfig{MaxBatch: 8, MaxDelay: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Request, 0, 8)
	fill := func() {
		for i := 0; i < 8; i++ {
			b.Admit(Request{ID: i, Arrival: float64(i % 3), Deadline: float64(100 - i)}, 0, 0)
		}
	}
	fill()
	buf = b.FlushInto(buf, 1)
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		buf = b.FlushInto(buf[:0], 1)
	})
	if allocs > 0 {
		t.Fatalf("FlushInto steady state allocates %v objects/flush, want 0", allocs)
	}
}

// FlushInto must produce exactly Flush's batches (same EDF total
// order), just in the caller's buffer.
func TestFlushIntoMatchesFlush(t *testing.T) {
	mk := func() *Batcher {
		b, _ := NewBatcher(BatcherConfig{MaxBatch: 3, MaxDelay: 0.01})
		for i, d := range []float64{30, 10, 10, 20, 10, 40, 5} {
			b.Admit(Request{ID: i, Arrival: float64(i % 2), Deadline: d}, 0, 0)
		}
		return b
	}
	a, c := mk(), mk()
	buf := make([]Request, 0, 4)
	for {
		want := a.Flush(1)
		buf = c.FlushInto(buf[:0], 1)
		if len(want) == 0 && len(buf) == 0 {
			break
		}
		if !reflect.DeepEqual(want, append([]Request(nil), buf...)) {
			t.Fatalf("FlushInto %v != Flush %v", buf, want)
		}
	}
}

// Partition edge cases that feed the planner.

func TestPartitionOneStagePerLayer(t *testing.T) {
	spec, _ := nn.GetSpec("lenet5")
	model := spec.BuildMicro(tensor.NewRNG(1), 1, 8, 10)
	costs := LayerCosts(model, 1, 8)
	st, err := Partition(costs, len(costs))
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != len(costs) {
		t.Fatalf("got %d stages for %d layers", len(st), len(costs))
	}
	for i, s := range st {
		if s.From != i || s.To != i {
			t.Fatalf("stage %d spans [%d,%d], want the single layer %d", i, s.From, s.To, i)
		}
		if s.OutElems != costs[i].OutElems {
			t.Fatalf("stage %d OutElems %d != layer's %d", i, s.OutElems, costs[i].OutElems)
		}
	}
}

// One dominant layer pins the bottleneck: every partition's bottleneck
// equals that layer's weight, and the dominant layer sits in a stage by
// itself once there are enough stages to isolate it.
func TestPartitionDominantLayer(t *testing.T) {
	costs := []LayerCost{
		{Index: 0, Name: "small", FLOPs: 10, OutElems: 4},
		{Index: 1, Name: "huge", FLOPs: 1e6, OutElems: 4},
		{Index: 2, Name: "small", FLOPs: 10, OutElems: 4},
		{Index: 3, Name: "small", FLOPs: 10, OutElems: 4},
	}
	st, err := Partition(costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range st {
		if s.From <= 1 && 1 <= s.To && s.From != s.To {
			t.Fatalf("dominant layer not isolated: %+v", st)
		}
	}
	bottleneck := 0.0
	for _, s := range st {
		if w := s.FLOPs; w > bottleneck {
			bottleneck = w
		}
	}
	if bottleneck != 1e6 {
		t.Fatalf("bottleneck %v, want the dominant layer's 1e6", bottleneck)
	}
}

// Equal-weight layers admit many optimal cuts; the DP must resolve
// ties deterministically (same input → identical stages, and repeated
// calls agree).
func TestPartitionTieBreakingDeterministic(t *testing.T) {
	costs := make([]LayerCost, 6)
	for i := range costs {
		costs[i] = LayerCost{Index: i, FLOPs: 100, OutElems: 8}
	}
	first, err := Partition(costs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Partition(costs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("tie-breaking unstable: %+v vs %+v", first, again)
		}
	}
}

// LayerCost must walk a Residual with a projection shortcut: the
// shortcut's conv+BN params and FLOPs are charged, the output shape
// follows the body (downsampled, widened), and the residual add is
// priced.
func TestLayerCostResidualProjectionShortcut(t *testing.T) {
	r := tensor.NewRNG(3)
	mkBlock := func(withShortcut bool) *nn.Residual {
		body := nn.NewSequential(
			nn.NewConv2D(r, 8, 16, 3, 2, 1),
			nn.NewBatchNorm2D(16),
			nn.NewReLU(),
			nn.NewConv2D(r, 16, 16, 3, 1, 1),
			nn.NewBatchNorm2D(16),
		)
		var shortcut *nn.Sequential
		if withShortcut {
			shortcut = nn.NewSequential(
				nn.NewConv2D(r, 8, 16, 1, 2, 0),
				nn.NewBatchNorm2D(16),
			)
		}
		return nn.NewResidual(body, shortcut)
	}
	withProj := LayerCosts(nn.NewSequential(mkBlock(true)), 8, 8)
	if len(withProj) != 1 {
		t.Fatalf("want one top-level cost, got %d", len(withProj))
	}
	c := withProj[0]
	// 8×8 input, stride-2 body → 16 channels at 4×4.
	if c.OutElems != 16*4*4 {
		t.Fatalf("projection block OutElems %d, want %d", c.OutElems, 16*4*4)
	}
	// The projection path must cost extra params and FLOPs versus a
	// hypothetical identity-skip version of the same body.
	identity := LayerCosts(nn.NewSequential(mkBlock(false)), 8, 8)[0]
	projConvParams := int64(16*8*1*1 + 16) // 1×1 conv
	projBNParams := int64(2 * 16)
	if c.Params != identity.Params+projConvParams+projBNParams {
		t.Fatalf("projection params %d, want identity %d + conv %d + bn %d",
			c.Params, identity.Params, projConvParams, projBNParams)
	}
	if c.FLOPs <= identity.FLOPs {
		t.Fatalf("projection FLOPs %v not above identity %v", c.FLOPs, identity.FLOPs)
	}
}

// TrainingWeight triples compute but not parameter residency, and
// PartitionBy under it still tiles the model exactly like Partition
// does structurally (contiguous, spanning).
func TestPartitionByTrainingWeight(t *testing.T) {
	spec, _ := nn.GetSpec("resnet18")
	model := spec.BuildMicro(tensor.NewRNG(2), 3, 8, 10)
	costs := LayerCosts(model, 3, 8)
	for _, c := range costs {
		want := 3*c.FLOPs + paramFLOPWeight*float64(c.Params)
		if math.Abs(TrainingWeight(c)-want) > 1e-9 {
			t.Fatalf("TrainingWeight(%s) = %v, want %v", c.Name, TrainingWeight(c), want)
		}
	}
	st, err := PartitionBy(costs, 3, TrainingWeight)
	if err != nil {
		t.Fatal(err)
	}
	if st[0].From != 0 || st[len(st)-1].To != len(costs)-1 {
		t.Fatalf("training partition does not span the model: %+v", st)
	}
	for i := 1; i < len(st); i++ {
		if st[i].From != st[i-1].To+1 {
			t.Fatalf("training partition not contiguous: %+v", st)
		}
	}
}

// appendArrivals is LoadGen.Arrivals as it was before the arrivals
// slice was sized up front: the same draws, appended one at a time.
func appendArrivals(g LoadGen, startHour, hours float64) []Request {
	if g.PeakRPS <= 0 || hours <= 0 {
		return nil
	}
	peak := g.Trace.PeakBusy
	if peak <= 0 {
		for _, busy := range g.Trace.HourlyProfile() {
			peak = math.Max(peak, busy)
		}
	}
	if peak <= 0 {
		return nil
	}
	rng := tensor.NewRNG(g.Seed)
	horizon := hours * 3600
	var out []Request
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / g.PeakRPS
		if t >= horizon {
			return out
		}
		keep := g.Trace.BusyFraction(math.Mod(startHour+t/3600, 24)) / peak
		if rng.Float64() >= keep {
			continue
		}
		sample := 0
		if g.Samples > 0 {
			sample = rng.Intn(g.Samples)
		}
		out = append(out, Request{ID: len(out), Arrival: t, Deadline: t + g.SLO, Sample: sample})
	}
}

func TestArrivalsMatchAppendLoop(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0x9e3779b97f4a7c15} {
		for _, hours := range []float64{0.01, 0.5, 1.5} {
			for _, rps := range []float64{0.3, 4, 20, 40} {
				g := LoadGen{Trace: cluster.DefaultTidalTrace(), PeakRPS: rps, SLO: 0.5, Samples: 64, Seed: seed}
				for _, start := range []float64{3, 14, 23.5} {
					got, want := g.Arrivals(start, hours), appendArrivals(g, start, hours)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, %v h from %v at %v rps: %d arrivals, the append loop %d",
							seed, hours, start, rps, len(got), len(want))
					}
				}
			}
		}
	}
}

// The stream is one allocation: the slice, sized from the envelope's
// mean count before the first draw.
func TestArrivalsAllocateOnce(t *testing.T) {
	g := LoadGen{Trace: cluster.DefaultTidalTrace(), PeakRPS: 20, SLO: 0.5, Samples: 256, Seed: 1}
	if a := testing.AllocsPerRun(3, func() { g.Arrivals(14, 0.5) }); a != 1 {
		t.Fatalf("Arrivals allocated %v times, want 1", a)
	}
}
