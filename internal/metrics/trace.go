package metrics

import "time"

// Clock distinguishes the two time bases a span can live on. The repo
// is a dual-track system: the functional track spends real host time
// (wall), while the performance track advances a discrete-event
// simulated clock (sim). A trace carries both, as two processes in the
// Chrome trace_event export.
type Clock string

// The two clocks.
const (
	ClockWall Clock = "wall"
	ClockSim  Clock = "sim"
)

// Span is one traced interval on either clock. Start and Dur are
// seconds since the registry's origin on the span's clock (wall spans:
// registry creation; sim spans: simulated time zero).
type Span struct {
	Name  string             `json:"name"`
	Cat   string             `json:"cat,omitempty"`
	Clock Clock              `json:"clock"`
	TID   int                `json:"tid"`
	Start float64            `json:"start"`
	Dur   float64            `json:"dur"`
	Args  map[string]float64 `json:"args,omitempty"`
}

// AddSpan appends a completed span, dropping (and counting) past the
// buffer cap.
func (r *Registry) AddSpan(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.addSpanLocked(s)
	r.mu.Unlock()
}

func (r *Registry) addSpanLocked(s Span) {
	if len(r.spans) >= r.maxSpans {
		r.droppedSpans++
		return
	}
	r.spans = append(r.spans, s)
}

// AddSimSpan records a span on the simulated clock: start and dur are
// simulated seconds, as computed by the discrete-event model.
func (r *Registry) AddSimSpan(name, cat string, tid int, start, dur float64, args map[string]float64) {
	r.AddSpan(Span{Name: name, Cat: cat, Clock: ClockSim, TID: tid, Start: start, Dur: dur, Args: args})
}

// ActiveSpan is an open wall-clock span; End closes and records it.
type ActiveSpan struct {
	r     *Registry
	name  string
	cat   string
	tid   int
	begin time.Time
}

// WallSeconds returns t in seconds since the registry's wall origin: the
// Start of a wall-clock span handed to AddSpan. It is 0 on nil.
func (r *Registry) WallSeconds(t time.Time) float64 {
	if r == nil {
		return 0
	}
	return t.Sub(r.wallOrigin).Seconds()
}

// BeginSpan opens a wall-clock span. On a nil registry it returns nil,
// and End on a nil ActiveSpan is a no-op, so callers never branch.
func (r *Registry) BeginSpan(name, cat string, tid int) *ActiveSpan {
	if r == nil {
		return nil
	}
	return &ActiveSpan{r: r, name: name, cat: cat, tid: tid, begin: time.Now()}
}

// End closes the span and records it.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	end := time.Now()
	a.r.mu.Lock()
	a.r.addSpanLocked(Span{
		Name:  a.name,
		Cat:   a.cat,
		Clock: ClockWall,
		TID:   a.tid,
		Start: a.begin.Sub(a.r.wallOrigin).Seconds(),
		Dur:   end.Sub(a.begin).Seconds(),
	})
	a.r.mu.Unlock()
}
