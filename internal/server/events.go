package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"socflow/internal/metrics"
)

// Decisions returns a copy of the job's scheduler decision log, oldest
// first: its last decisionLogSize admits, queues, parks, resumes and
// resizes, each with the figure behind it. A rejected submission never
// becomes a job; its figure is in the error Submit returns.
func (s *Server) Decisions(id string) ([]Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return append([]Decision{}, j.log...), nil
}

// eventSource returns a job's registry and a channel closed once the
// job is terminal.
func (s *Server) eventSource(id string) (*metrics.Registry, <-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.spec.Metrics, j.done, nil
}

// serveEvents serves GET /v1/jobs/{id}/events: the job's metrics
// events from now on as server-sent events, one JSON metrics.Event per
// data: line, closing once the job is terminal. The subscription's
// buffer decouples the job from the client: when it is full, events
// are dropped, so a slow client never blocks training.
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request) {
	reg, done, err := s.eventSource(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	// As deep as a local JobHandle.Events stream: room for a burst of
	// events while the handler is writing the previous one out.
	events := make(chan metrics.Event, 256)
	var stopped atomic.Bool
	reg.Subscribe(func(e metrics.Event) {
		if stopped.Load() {
			return
		}
		select {
		case events <- e:
		default: // the client is behind: drop rather than stall the job
		}
	})
	defer stopped.Store(true)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if rc.Flush() != nil {
		return // the client went away before the stream began
	}
	send := func(e metrics.Event) bool {
		data, _ := json.Marshal(e) // an Event always marshals
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	for {
		select {
		case e := <-events:
			if !send(e) {
				return
			}
		case <-done:
			// Everything the job emitted was queued before it ended.
			for {
				select {
				case e := <-events:
					if !send(e) {
						return
					}
				default:
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

// serveTrace serves GET /v1/jobs/{id}/trace: the spans the job's
// registry holds at the time of the request, on both clocks, as a
// Chrome trace (metrics.RunReport.WriteChromeTrace) that
// chrome://tracing and Perfetto load. A running job's trace shows where
// its time has gone so far.
func (s *Server) serveTrace(w http.ResponseWriter, r *http.Request) {
	reg, _, err := s.eventSource(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	rep := reg.Snapshot()
	if rep == nil { // a job without a registry has no spans
		rep = &metrics.RunReport{}
	}
	w.Header().Set("Content-Type", "application/json")
	rep.WriteChromeTrace(w)
}
