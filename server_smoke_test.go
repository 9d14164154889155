package socflow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"socflow/internal/metrics"
	"socflow/internal/server"
)

// TestServerSmokeHTTP is the `make server-smoke` gate: a daemon (the
// same handler cmd/socflow-server serves) takes jobs from two tenants
// over real HTTP, enforces their quotas, and returns full reports.
func TestServerSmokeHTTP(t *testing.T) {
	srv := NewServer(ServerConfig{
		TotalSoCs: 32,
		Quotas: map[string]Quota{
			"team-a": {MaxRunningJobs: 1},
			"team-b": {MaxRunningJobs: 1, MaxSoCs: 8},
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := Dial(ts.URL)
	ctx := context.Background()

	cfg := ctlCfg(4, 3)

	// Two jobs per tenant: each tenant's second job must queue behind
	// its first (MaxRunningJobs 1) and still complete.
	var wg sync.WaitGroup
	reports := make([][]*Report, 2)
	for ti, tenant := range []string{"team-a", "team-b"} {
		reports[ti] = make([]*Report, 2)
		for ji := 0; ji < 2; ji++ {
			h, err := cl.Submit(ctx, cfg, WithTenant(tenant))
			if err != nil {
				t.Fatalf("%s job %d: %v", tenant, ji, err)
			}
			wg.Add(1)
			go func(ti, ji int, h *JobHandle) {
				defer wg.Done()
				rep, err := h.Wait(ctx)
				if err != nil {
					t.Errorf("wait %d/%d: %v", ti, ji, err)
					return
				}
				reports[ti][ji] = rep
			}(ti, ji, h)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for ti, tenant := range []string{"team-a", "team-b"} {
		for ji, rep := range reports[ti] {
			if rep == nil || len(rep.EpochAccuracies) != 3 {
				t.Fatalf("%s job %d report incomplete: %+v", tenant, ji, rep)
			}
		}
		if peak := srv.PeakRunning(tenant); peak != 1 {
			t.Fatalf("%s quota not held over HTTP: peak running %d, want 1", tenant, peak)
		}
	}

	// Determinism survives the HTTP round trip: both tenants ran the
	// same seeded config, so all four reports must agree bit for bit.
	want := reports[0][0].EpochAccuracies
	for ti := range reports {
		for ji, rep := range reports[ti] {
			for e := range want {
				if rep.EpochAccuracies[e] != want[e] {
					t.Fatalf("job %d/%d epoch %d: %v != %v", ti, ji, e, rep.EpochAccuracies[e], want[e])
				}
			}
		}
	}

	// Quota violations surface as typed HTTP errors at submit time.
	big := ctlCfg(16, 2)
	if _, err := cl.Submit(ctx, big, WithTenant("team-b")); err == nil ||
		!strings.Contains(err.Error(), "403") {
		t.Fatalf("over-MaxSoCs submit should 403, got %v", err)
	}

	// The daemon's status listing covers every submitted job.
	jobs := srv.List()
	if got := len(jobs); got != 4 {
		t.Fatalf("job listing has %d entries, want 4", got)
	}

	// A scrape after the jobs ended finds each one's simulated run
	// under its own labels.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, st := range jobs {
		sample := fmt.Sprintf("socflow_sim_runs{job=%q,tenant=%q} 1\n", st.ID, st.Tenant)
		if !strings.Contains(string(scrape), sample) {
			t.Fatalf("GET /metrics lacks %q:\n%s", sample, scrape)
		}
	}
}

// TestServerRejectsUnknownConfigFields posts, for every job kind, a
// config as this tree's client marshals it plus one key the config type
// does not have. The daemon must answer 400 naming the key and queue
// nothing — not drop the key and run a different job than the one
// asked for.
func TestServerRejectsUnknownConfigFields(t *testing.T) {
	srv := NewServer(ServerConfig{TotalSoCs: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dist := DistributedConfig{JobSpec: ctlCfg(4, 1).JobSpec, NumSoCs: 4, Groups: 2, InProcess: true}
	cases := []struct {
		kind  string
		cfg   any
		extra string
	}{
		{"train", ctlCfg(4, 1), "Epochz"},
		{"train", ctlCfg(4, 1), "Int8Kernels"},
		{"distributed", dist, "Workers"},
		{"serve", smokeServeConfig(), "replicas"},
	}
	for _, c := range cases {
		raw, err := json.Marshal(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		fields[c.extra] = 3
		cfg, err := json.Marshal(fields)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(server.SubmitRequest{Tenant: "t", Kind: c.kind, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.extra) {
			t.Fatalf("%s config with unknown key %q: got %s %q, want 400 naming the key",
				c.kind, c.extra, resp.Status, bytes.TrimSpace(msg))
		}
	}
	if got := len(srv.List()); got != 0 {
		t.Fatalf("rejected submissions queued %d jobs", got)
	}
}

// TestServerSmokeEventStream: a remote client follows one job's
// GET /v1/jobs/{id}/events stream from before the job starts to the
// stream's close and sees every epoch. The job waits for the tide: at
// the peak hour the daemon has one SoC free, the job wants four.
func TestServerSmokeEventStream(t *testing.T) {
	srv := NewServer(ServerConfig{TotalSoCs: 8, Tidal: true, StartHour: 14})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	h, err := Dial(ts.URL).Submit(ctx, ctlCfg(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := h.Status(ctx); err != nil || st.State != JobQueued {
		t.Fatalf("job at the peak: %+v, %v; want it queued", st, err)
	}
	events := h.Events() // subscribed once Events returns
	srv.SetHour(2)
	var epochs []int
	for e := range events {
		if e.Kind == metrics.KindEpoch {
			epochs = append(epochs, e.Epoch)
		}
	}
	if !reflect.DeepEqual(epochs, []int{0, 1, 2}) {
		t.Fatalf("stream carried epochs %v, want [0 1 2]", epochs)
	}
	if st, err := h.Status(ctx); err != nil || st.State != JobDone {
		t.Fatalf("stream closed with the job %+v, %v", st, err)
	}
}
