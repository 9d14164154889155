package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"socflow/internal/metrics"
)

// registryJob is a stub job that publishes into reg and finishes.
func registryJob(tenant string, reg *metrics.Registry) JobSpec {
	return JobSpec{
		Tenant:  tenant,
		Metrics: reg,
		Run:     func(context.Context, *Controller) (any, error) { return nil, nil },
	}
}

// submitAndWait queues the specs in order and waits for all of them.
func submitAndWait(t testing.TB, s *Server, specs ...JobSpec) {
	t.Helper()
	for _, spec := range specs {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
}

// GET /metrics renders every job's registry as Prometheus text: one
// # TYPE line per family, families in name order, samples in job order
// under job and tenant labels, names and label values escaped, and a
// job without a registry exporting nothing.
func TestMetricsGolden(t *testing.T) {
	a := metrics.New()
	a.Counter("sim.runs").Add(2)
	a.Gauge("parallel.width").Set(4)
	lat := a.Histogram("serve.latency.seconds", []float64{0.5, 1})
	for _, v := range []float64{0.25, 0.5, 2} {
		lat.Observe(v)
	}
	b := metrics.New()
	b.Counter("sim.runs").Inc()
	b.Gauge("a-b").Set(1.5)

	s := New(Config{TotalSoCs: 4})
	defer s.Close()
	submitAndWait(t, s, registryJob("team-a", a), registryJob(`we"b`, b), registryJob("none", nil))
	ts := httptest.NewServer(NewHandler(s, echoFactory))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q", ct)
	}
	const want = `# TYPE socflow_a_b gauge
socflow_a_b{job="job-000002",tenant="we\"b"} 1.5
# TYPE socflow_parallel_width gauge
socflow_parallel_width{job="job-000001",tenant="team-a"} 4
# TYPE socflow_serve_latency_seconds histogram
socflow_serve_latency_seconds_bucket{job="job-000001",tenant="team-a",le="0.5"} 2
socflow_serve_latency_seconds_bucket{job="job-000001",tenant="team-a",le="1"} 2
socflow_serve_latency_seconds_bucket{job="job-000001",tenant="team-a",le="+Inf"} 3
socflow_serve_latency_seconds_sum{job="job-000001",tenant="team-a"} 2.75
socflow_serve_latency_seconds_count{job="job-000001",tenant="team-a"} 3
# TYPE socflow_sim_runs counter
socflow_sim_runs{job="job-000001",tenant="team-a"} 2
socflow_sim_runs{job="job-000002",tenant="we\"b"} 1
`
	if string(body) != want {
		t.Fatalf("GET /metrics:\n%s\nwant:\n%s", body, want)
	}
}

// BenchmarkMetricsScrape prices one GET /metrics over 32 finished jobs,
// each with 20 counters, 10 gauges and 3 histograms.
func BenchmarkMetricsScrape(b *testing.B) {
	s := New(Config{TotalSoCs: 4, QueueLimit: 64})
	defer s.Close()
	for j := 0; j < 32; j++ {
		reg := metrics.New()
		for i := 0; i < 20; i++ {
			reg.Counter(fmt.Sprintf("kernel.c%d.calls", i)).Add(int64(i * j))
		}
		for i := 0; i < 10; i++ {
			reg.Gauge(fmt.Sprintf("sim.g%d.seconds", i)).Set(float64(i) / 3)
		}
		for i := 0; i < 3; i++ {
			h := reg.Histogram(fmt.Sprintf("serve.h%d.seconds", i), metrics.DefaultSecondsBuckets)
			for v := 0; v < 100; v++ {
				h.Observe(float64(v) / 50)
			}
		}
		submitAndWait(b, s, registryJob(fmt.Sprintf("tenant-%d", j%4), reg))
	}
	h := NewHandler(s, echoFactory)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	b.ReportAllocs()
	for b.Loop() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatal(w.Code)
		}
	}
}
