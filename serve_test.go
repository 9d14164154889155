package socflow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// smokeServeConfig is a serving window small enough for CI: a trough
// hour of light traffic on a tiny pipelined model.
func smokeServeConfig() ServeConfig {
	return ServeConfig{
		Model: "lenet5", Dataset: "fmnist",
		Stages: 2, MaxBatch: 4, MaxQueueDelay: 0.02,
		SLO: 0.5, PeakRPS: 2,
		StartHour: 3, Hours: 1, // the night trough
		NumSoCs: 8, Samples: 64, Seed: 7,
	}
}

func TestServeConfigValidation(t *testing.T) {
	srv := NewServer(ServerConfig{TotalSoCs: 8})
	defer srv.Close()
	cl := srv.Client()
	ctx := context.Background()

	base := smokeServeConfig()
	cases := []struct {
		name   string
		mutate func(*ServeConfig)
	}{
		{"non-positive SLO", func(c *ServeConfig) { c.SLO = -1 }},
		{"zero batch size", func(c *ServeConfig) { c.MaxBatch = -4 }},
		{"negative queue delay", func(c *ServeConfig) { c.MaxQueueDelay = -0.1 }},
		{"queue delay swallows the SLO", func(c *ServeConfig) { c.MaxQueueDelay = c.SLO }},
		{"bad partition count", func(c *ServeConfig) { c.Stages = -2 }},
		{"more stages than SoCs", func(c *ServeConfig) { c.Stages = c.NumSoCs + 1 }},
		{"negative cluster", func(c *ServeConfig) { c.NumSoCs = -8 }},
		{"non-positive peak rate", func(c *ServeConfig) { c.PeakRPS = -5 }},
		{"start hour past midnight", func(c *ServeConfig) { c.StartHour = 24 }},
		{"negative window", func(c *ServeConfig) { c.Hours = -1 }},
		{"empty sample pool", func(c *ServeConfig) { c.Samples = -64 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.mutate(&cfg)
			_, err := cl.Serve(ctx, cfg)
			if !errors.Is(err, ErrBadOption) {
				t.Fatalf("Serve(%+v) err = %v, want ErrBadOption", cfg, err)
			}
		})
	}

	// The zero config is all defaults and must pass validation.
	if err := (ServeConfig{}).withDefaults().validate(); err != nil {
		t.Fatalf("default ServeConfig invalid: %v", err)
	}
}

// TestServeSmoke is the `make serve-smoke` gate: an in-process server
// serves a tiny pipelined model through a light-traffic window and must
// hold the SLO essentially everywhere.
func TestServeSmoke(t *testing.T) {
	srv := NewServer(ServerConfig{TotalSoCs: 8})
	defer srv.Close()
	ctx := context.Background()

	var hourly []ServeHourStat
	cfg := smokeServeConfig()
	cfg.HourEnd = func(s ServeHourStat) { hourly = append(hourly, s) }

	h, err := srv.Client().Serve(ctx, cfg, WithTenant("web"), WithPriority(9))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if rep.Requests == 0 || rep.Served == 0 {
		t.Fatalf("no traffic served: %+v", rep)
	}
	if rep.Attainment < 0.99 {
		t.Fatalf("attainment %.4f < 0.99 at low load (shed %d, p99 %.4fs)",
			rep.Attainment, rep.Shed, rep.P99Seconds)
	}
	if rep.P50Seconds <= 0 || rep.P99Seconds < rep.P50Seconds {
		t.Fatalf("implausible quantiles: p50 %.4f p99 %.4f", rep.P50Seconds, rep.P99Seconds)
	}
	if len(rep.Hourly) != 1 || rep.PeakReplicas < 1 {
		t.Fatalf("hourly sweep missing: %+v", rep)
	}
	if len(hourly) != 1 || hourly[0].Requests != rep.Hourly[0].Requests {
		t.Fatalf("HourEnd hook saw %+v, report says %+v", hourly, rep.Hourly)
	}

	// Determinism: the same seeded window replays bit-identically.
	cfg.HourEnd = nil
	h2, err := srv.Client().Serve(ctx, cfg)
	if err != nil {
		t.Fatalf("Serve (repeat): %v", err)
	}
	rep2, err := h2.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait (repeat): %v", err)
	}
	if rep2.Requests != rep.Requests || rep2.Served != rep.Served ||
		rep2.P99Seconds != rep.P99Seconds || rep2.Attainment != rep.Attainment {
		t.Fatalf("serving window not deterministic:\n  %+v\n  %+v", rep, rep2)
	}
}

// Serving over the daemon's HTTP surface: the same Kind-dispatched
// handler `socflow server` exposes.
func TestServeOverHTTP(t *testing.T) {
	srv := NewServer(ServerConfig{TotalSoCs: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL)
	ctx := context.Background()

	h, err := cl.Serve(ctx, smokeServeConfig(), WithTenant("web"))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if rep.Requests == 0 || rep.Attainment < 0.99 {
		t.Fatalf("HTTP serving window wrong: %+v", rep)
	}
	if rep.Model != "lenet5" || len(rep.Hourly) != 1 {
		t.Fatalf("report did not survive the round trip: %+v", rep)
	}
	// The job's latency split is scraped with its latency.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"serve_latency", "serve_queue", "serve_stage0_compute", "serve_stage1_compute", "serve_boundary0_transfer"} {
		if sample := fmt.Sprintf("socflow_%s_seconds_count{job=%q,tenant=\"web\"} %d\n", family, h.ID(), rep.Served); !strings.Contains(string(scrape), sample) {
			t.Errorf("GET /metrics lacks %q", sample)
		}
	}
}

// The repo benchmark's serve-replay workload hashes these eight report
// fields into its result_digest; they are pinned here at the
// benchmark's --smoke window and seed 1.
func TestServeReplayIsPinned(t *testing.T) {
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	ctx := context.Background()
	h, err := srv.Client().Serve(ctx, ServeConfig{
		Model: "vgg11", Dataset: "cifar10", Stages: 2, MaxBatch: 8,
		PeakRPS: 20, StartHour: 14, Hours: 0.025, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{
		float64(rep.Requests), float64(rep.Served), float64(rep.Shed), float64(rep.Batches),
		rep.Attainment, rep.P50Seconds, rep.P99Seconds, rep.MeanSeconds,
	}
	want := []float64{1841, 1841, 0, 922, 1, 0x1.25696781c152p-04, 0x1.978630094a3d9p-04, 0x1.2bffa54c4b18bp-04}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("requests, served, shed, batches, attainment, p50, p99, mean = %x, want %x", got, want)
	}
}
