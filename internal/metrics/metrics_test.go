package metrics

import (
	"math"
	"sync"
	"testing"
)

// Bucket semantics: bucket i counts v <= Bounds[i] (first match), the
// implicit last bucket everything above the final bound. Values landing
// exactly on a bound belong to that bound's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("t", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 7, -1} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["t"]
	want := []int64{3, 2, 1, 1} // {-1, 0.5, 1}, {1.5, 2}, {5}, {7}
	if len(snap.Counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(snap.Counts), len(want))
	}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 7 || snap.Sum != 16 || snap.Min != -1 || snap.Max != 7 {
		t.Fatalf("summary wrong: %+v", snap)
	}
}

// ObserveN(v, n) leaves a histogram bit for bit where n Observe(v)
// calls would: buckets, count, and the bits of sum, min and max, with
// NaN and ±Inf among the values and n = 0 among the counts.
func TestHistogramObserveNMatchesObserve(t *testing.T) {
	values := []float64{0.3, 1, 1e-17, math.NaN(), 0.1, math.Inf(1), -2.5, math.Inf(-1), 7, math.Copysign(0, -1), 0.7}
	counts := []int{3, 0, 5, 2, 1, 4, 0, 1, 6, 2, 9}
	for start := range values { // every rotation: NaN or ±Inf first, empty histograms, ...
		batched, single := New(), New()
		hb := batched.Histogram("h", []float64{0.5, 1, 5})
		hs := single.Histogram("h", []float64{0.5, 1, 5})
		for k := range values {
			v, n := values[(start+k)%len(values)], counts[k]
			hb.ObserveN(v, n)
			for i := 0; i < n; i++ {
				hs.Observe(v)
			}
			b, s := batched.Snapshot().Histograms["h"], single.Snapshot().Histograms["h"]
			same := b.Count == s.Count && len(b.Counts) == len(s.Counts) &&
				math.Float64bits(b.Sum) == math.Float64bits(s.Sum) &&
				math.Float64bits(b.Min) == math.Float64bits(s.Min) &&
				math.Float64bits(b.Max) == math.Float64bits(s.Max)
			for i := range b.Counts {
				same = same && b.Counts[i] == s.Counts[i]
			}
			if !same {
				t.Fatalf("rotation %d, after ObserveN(%v, %d): %+v, %d Observe calls give %+v", start, v, n, b, n, s)
			}
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds must panic")
		}
	}()
	New().Histogram("bad", []float64{1, 1})
}

// Run under -race: concurrent writers on every instrument type, plus
// span and event traffic, must be safe and lose nothing.
func TestConcurrentRegistry(t *testing.T) {
	r := New()
	var delivered Counter
	r.Subscribe(func(Event) { delivered.Inc() })
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{0.5}).Observe(float64(i))
				r.AddSimSpan("s", "t", w, float64(i), 1, nil)
				sp := r.BeginSpan("w", "t", w)
				sp.End()
				r.Emit(Event{Kind: "tick", Node: w})
			}
		}(w)
	}
	wg.Wait()
	const total = workers * each
	snap := r.Snapshot()
	if snap.Counters["c"] != total {
		t.Fatalf("counter lost updates: %d", snap.Counters["c"])
	}
	if snap.Gauges["g"] != total {
		t.Fatalf("gauge lost updates: %v", snap.Gauges["g"])
	}
	if snap.Histograms["h"].Count != total {
		t.Fatalf("histogram lost updates: %d", snap.Histograms["h"].Count)
	}
	if got := int64(len(snap.Spans)) + snap.DroppedSpans; got != 2*total {
		t.Fatalf("spans+dropped = %d, want %d", got, 2*total)
	}
	if delivered.Value() != total {
		t.Fatalf("events delivered: %d", delivered.Value())
	}
}

// Everything must be callable on nil receivers: that is what makes
// unconditional instrumentation free when metrics are off.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	if r.Counter("c").Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(1)
	if r.Gauge("g").Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	r.Histogram("h", []float64{1}).Observe(1)
	r.Histogram("h", []float64{1}).ObserveN(1, 3)
	r.AddSpan(Span{})
	r.AddSimSpan("s", "", 0, 0, 1, nil)
	r.BeginSpan("s", "", 0).End()
	r.Subscribe(func(Event) {})
	r.Emit(Event{})
	r.ObserveEpoch(0, 0.5, 1)
	r.SetMaxSpans(1)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshots non-nil")
	}
}

func TestObserveEpochDualClock(t *testing.T) {
	r := New()
	var events []Event
	r.Subscribe(func(e Event) { events = append(events, e) })
	r.ObserveEpoch(0, 0.25, 10)
	r.ObserveEpoch(1, 0.5, 12)
	snap := r.Snapshot()

	if len(snap.Epochs) != 2 {
		t.Fatalf("epochs: %d", len(snap.Epochs))
	}
	e0, e1 := snap.Epochs[0], snap.Epochs[1]
	if e0.SimStart != 0 || e0.SimSeconds != 10 || e1.SimStart != 10 || e1.SimSeconds != 12 {
		t.Fatalf("sim clock broken: %+v %+v", e0, e1)
	}
	if e1.WallStart < e0.WallStart+e0.WallSeconds-1e-9 {
		t.Fatalf("wall epochs overlap: %+v %+v", e0, e1)
	}
	if snap.SimSeconds != 22 {
		t.Fatalf("sim clock position: %v", snap.SimSeconds)
	}
	if snap.Counters["train.epochs"] != 2 || snap.Gauges["train.accuracy"] != 0.5 {
		t.Fatalf("train instruments: %v / %v", snap.Counters, snap.Gauges)
	}
	// One wall + one sim span per epoch.
	var wall, sim int
	for _, s := range snap.Spans {
		switch s.Clock {
		case ClockWall:
			wall++
		case ClockSim:
			sim++
		}
	}
	if wall != 2 || sim != 2 {
		t.Fatalf("spans: %d wall, %d sim", wall, sim)
	}
	if len(events) != 2 || events[1].Kind != KindEpoch || events[1].Acc != 0.5 || events[1].SimSeconds != 12 {
		t.Fatalf("events: %+v", events)
	}
}

func TestSpanCapDrops(t *testing.T) {
	r := New()
	r.SetMaxSpans(2)
	for i := 0; i < 5; i++ {
		r.AddSimSpan("s", "", 0, float64(i), 1, nil)
	}
	snap := r.Snapshot()
	if len(snap.Spans) != 2 || snap.DroppedSpans != 3 {
		t.Fatalf("cap broken: %d spans, %d dropped", len(snap.Spans), snap.DroppedSpans)
	}
}

// Quantile interpolates linearly inside the bucket that holds the
// target rank, clamps to the observed [Min, Max], and returns the exact
// extremes at q=0 and q=1.
func TestHistogramQuantile(t *testing.T) {
	approx := func(got, want float64) bool {
		d := got - want
		return d < 1e-9 && d > -1e-9
	}

	r := New()
	h := r.Histogram("lat", []float64{1, 2, 5})
	// 10 observations spread uniformly through (1, 2]: the median should
	// interpolate to the middle of that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.05 + 0.09*float64(i))
	}
	if got := h.Quantile(0.5); !approx(got, 1.5) {
		t.Fatalf("median of uniform (1,2] bucket = %v, want 1.5", got)
	}
	snap := r.Snapshot().Histograms["lat"]
	if got := snap.Quantile(0.5); !approx(got, 1.5) {
		t.Fatalf("snapshot median = %v, want 1.5", got)
	}

	// Boundary q values return exact extremes, not interpolations.
	if got := snap.Quantile(0); got != snap.Min {
		t.Fatalf("q=0 = %v, want Min %v", got, snap.Min)
	}
	if got := snap.Quantile(1); got != snap.Max {
		t.Fatalf("q=1 = %v, want Max %v", got, snap.Max)
	}

	// A quantile landing in the first bucket interpolates from Min, so
	// it can never undershoot the smallest observation.
	r2 := New()
	h2 := r2.Histogram("first", []float64{10, 20})
	h2.Observe(9)
	h2.Observe(9.5)
	if got := h2.Quantile(0.25); got < 9 || got > 10 {
		t.Fatalf("first-bucket quantile %v escaped [Min, bound]", got)
	}

	// Overflow bucket: interpolates between the last bound and Max.
	r3 := New()
	h3 := r3.Histogram("over", []float64{1})
	h3.Observe(100)
	h3.Observe(200)
	if got := h3.Quantile(0.99); got < 1 || got > 200 {
		t.Fatalf("overflow quantile %v escaped (lastBound, Max]", got)
	}
	if got := h3.Quantile(1); got != 200 {
		t.Fatalf("overflow q=1 = %v, want Max 200", got)
	}

	// Degenerate cases: empty histogram and nil receiver return 0.
	if got := New().Histogram("empty", []float64{1}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v, want 0", got)
	}
}
