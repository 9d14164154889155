package main

import (
	"path/filepath"
	"time"
)

// recorder is the harness's own span store. It is deliberately not
// internal/metrics: the traced pass measures that package, and a tracer
// must not be measuring itself. The harness drives everything from one
// goroutine, so a stack gives each span its parent. Spans stay in
// memory and are written out when the run ends.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	stack    []int
}

type span struct {
	name       string
	start, end time.Duration
	parent     int // index into spans, -1 for the root
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].end = time.Since(r.origin)
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimesMS returns, per span name, the time spent in spans of that
// name and not in their children.
func (r *recorder) selfTimesMS() map[string]float64 {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		out[s.name] += float64(self[i]) / float64(time.Millisecond)
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto). Every span carries its parent and the
// workload id all spans of the run share.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		parent := ""
		if s.parent >= 0 {
			parent = r.spans[s.parent].name
		}
		events[i] = event{
			Name: s.name, Cat: "benchmark", Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.parent, "parent_name": parent, "workload": r.workload},
		}
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func tracePath(o options, workload string) string {
	return filepath.Join(o.out, "trace-"+workload+".json")
}
