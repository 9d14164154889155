// Package metrics is the repository's observability core: a
// dependency-free, concurrency-safe registry of counters, gauges, and
// fixed-bucket histograms, plus a span tracer that stamps events on two
// clocks — host wall time and the discrete-event simulator's clock —
// so functional-track performance and performance-track model outputs
// land in one structure (see DESIGN.md §10).
//
// Every method on Registry, Counter, Gauge, and Histogram is a no-op on
// a nil receiver. Instrumentation call sites are therefore
// unconditional: code resolves its instruments once (a nil Registry
// hands out nil instruments) and records unconditionally, paying a
// single predictable branch when observability is off.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move both ways (a level, a total, a
// latest-value).
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates v into the gauge.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// values v with v <= Bounds[i] (and v > Bounds[i-1]); one implicit
// overflow bucket catches everything above the last bound.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ObserveN records v n times: one lock and one bucket search, then n
// adds to the sum in order, so the state is bit for bit that of n
// Observe(v) calls. n <= 0 records nothing.
func (h *Histogram) ObserveN(v float64, n int) {
	if h == nil || n <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i] += int64(n)
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += int64(n)
	for ; n > 0; n-- {
		h.sum += v
	}
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// DefaultSecondsBuckets is a 1-2.5-5 ladder from 100µs to 1000s,
// suitable for both wall-clock and simulated durations.
var DefaultSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000,
}

// defaultMaxSpans bounds the span buffer; past it, spans are dropped
// and counted, never grown without limit.
const defaultMaxSpans = 1 << 16

// Registry is the root of the observability tree: named instruments,
// the dual-clock span buffer, the epoch timeline, and the event
// stream. One registry typically covers one run (or one bench
// invocation aggregating several runs).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	subs []func(Event)

	wallOrigin   time.Time
	spans        []Span
	maxSpans     int
	droppedSpans int64

	epochs   []EpochStat
	simNow   float64
	lastMark time.Time
}

// New creates an empty registry whose wall clock starts now.
func New() *Registry {
	now := time.Now()
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		hists:      map[string]*Histogram{},
		wallOrigin: now,
		lastMark:   now,
		maxSpans:   defaultMaxSpans,
	}
}

// Counter returns the named counter, creating it on first use. On a
// nil registry it returns a nil counter, whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// instrument and ignore bounds). Bounds must be strictly ascending.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("metrics: histogram %q bounds not ascending at %d", name, i))
			}
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// SetMaxSpans caps the span buffer (for tests and memory-constrained
// callers). Spans past the cap are dropped and counted in the report.
func (r *Registry) SetMaxSpans(n int) {
	if r == nil || n < 0 {
		return
	}
	r.mu.Lock()
	r.maxSpans = n
	r.mu.Unlock()
}
