package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"socflow/internal/metrics"
)

// submitHeld submits a job over HTTP whose Run waits for release and
// then runs body on the job's registry.
func submitHeld(t *testing.T, s *Server, release <-chan struct{}, body func(*metrics.Registry)) (*httptest.Server, string) {
	t.Helper()
	reg := metrics.New()
	ts := httptest.NewServer(NewHandler(s, func(req SubmitRequest) (JobSpec, error) {
		return JobSpec{Tenant: req.Tenant, SoCs: 1, Metrics: reg, Run: func(ctx context.Context, ctl *Controller) (any, error) {
			<-release
			body(reg)
			return nil, nil
		}}, nil
	}))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(`{"tenant":"a","config":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return ts, sub.ID
}

// readEvents reads a server-sent event stream to its end.
func readEvents(t *testing.T, r io.Reader) []metrics.Event {
	t.Helper()
	var out []metrics.Event
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var e metrics.Event
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("data line %q: %v", data, err)
		}
		out = append(out, e)
	}
	return out
}

// GET /v1/jobs/{id}/events streams what the job emits after the stream
// opens, one JSON event per data: line, and ends when the job does.
func TestEventsStreamUntilTerminal(t *testing.T) {
	s := New(Config{TotalSoCs: 4})
	defer s.Close()
	release := make(chan struct{})
	ts, id := submitHeld(t, s, release, func(reg *metrics.Registry) {
		for e := 0; e < 3; e++ {
			reg.ObserveEpoch(e, 0.5, 0)
		}
	})
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("events: %s, Content-Type %q", resp.Status, ct)
	}
	close(release) // the daemon subscribed before answering
	events := readEvents(t, resp.Body)
	if len(events) != 3 {
		t.Fatalf("stream carried %d events, want 3: %+v", len(events), events)
	}
	for e, ev := range events {
		if ev.Kind != metrics.KindEpoch || ev.Epoch != e || ev.Acc != 0.5 {
			t.Fatalf("event %d: %+v", e, ev)
		}
	}

	// A terminal job's stream closes at once; an unknown job is a 404.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if events := readEvents(t, resp2.Body); resp2.StatusCode != http.StatusOK || len(events) != 0 {
		t.Fatalf("terminal job's stream: %s, %d events", resp2.Status, len(events))
	}
	resp2.Body.Close()
	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/events"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job's events: %v %v", resp, err)
	}
}

// A client that stops reading never blocks the job: its events drop
// once the stream's buffer is full, and the stream still ends with it.
func TestEventsSlowClientNeverBlocksJob(t *testing.T) {
	s := New(Config{TotalSoCs: 4})
	defer s.Close()
	release := make(chan struct{})
	const emitted = 50_000
	ts, id := submitHeld(t, s, release, func(reg *metrics.Registry) {
		for i := 0; i < emitted; i++ {
			reg.Emit(metrics.Event{Kind: metrics.KindEpoch, Epoch: i, Detail: "a detail long enough to fill socket buffers"})
		}
	})
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Wait(ctx, id); err != nil {
		t.Fatalf("job with an unread event stream: %v", err)
	}
	if n := len(readEvents(t, resp.Body)); n == 0 || n >= emitted {
		t.Fatalf("slow client got %d of %d events, want some dropped", n, emitted)
	}
}

// GET /v1/jobs/{id}/trace serves a running job's spans so far as a
// Chrome trace; an unknown job is a 404.
func TestTraceServesRunningJobSpans(t *testing.T) {
	s := New(Config{TotalSoCs: 4})
	defer s.Close()
	release, spanned, finish := make(chan struct{}), make(chan struct{}), make(chan struct{})
	ts, id := submitHeld(t, s, release, func(reg *metrics.Registry) {
		reg.BeginSpan("step", "test", 0).End()
		close(spanned)
		<-finish
	})
	defer ts.Close()
	close(release)
	<-spanned
	defer close(finish)
	if st, err := s.Get(id); err != nil || st.State != JobRunning {
		t.Fatalf("job %s: %+v, %v; want it running", id, st, err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("trace: %s, Content-Type %q", resp.Status, ct)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	wall := 0
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && e.PID == 1 && e.Name == "step" { // pid 1: the wall clock
			wall++
		}
	}
	if wall != 1 {
		t.Fatalf("trace has %d wall-clock step spans, want 1: %+v", wall, trace.TraceEvents)
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999999/trace"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job's trace: %v %v", resp, err)
	}
}
