package socflow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"socflow/internal/server"
)

// admissionTrain is a one-epoch training config on the paper's 32 SoCs.
func admissionTrain(mutate func(*Config)) Config {
	cfg := Config{
		JobSpec: JobSpec{Model: "lenet5", Dataset: "fmnist", Epochs: 1, TrainSamples: 64, ValSamples: 32},
		NumSoCs: 32,
	}
	mutate(&cfg)
	return cfg
}

// admissionDist is a one-epoch in-process mesh job on 8 SoCs.
func admissionDist(mutate func(*DistributedConfig)) DistributedConfig {
	cfg := DistributedConfig{
		JobSpec: JobSpec{Model: "lenet5", Dataset: "fmnist", Epochs: 1, TrainSamples: 64, ValSamples: 32},
		NumSoCs: 8, InProcess: true,
	}
	mutate(&cfg)
	return cfg
}

// TestSubmitRejectsBadConfigs sends configs that would panic or fail
// only at Wait through both doors: in-process Submit must return the
// kind's sentinel and no handle; the daemon must answer 400 naming the
// sentinel, queue nothing, and stay up. Configs that complete — Groups
// above the fleet where it is a cap or ignored — must stay legal.
func TestSubmitRejectsBadConfigs(t *testing.T) {
	bad := []struct {
		name string
		kind string
		cfg  any
		want error
	}{
		{"train negative fleet", "train", admissionTrain(func(c *Config) { c.NumSoCs = -4 }), ErrBadOption},
		{"train unknown strategy", "train", admissionTrain(func(c *Config) { c.Strategy = "magic" }), ErrUnknownStrategy},
		{"train unknown mixed mode", "train", admissionTrain(func(c *Config) { c.Mixed = "fp64" }), ErrUnknownMixedMode},
		{"train unknown parallelism", "train", admissionTrain(func(c *Config) { c.Parallelism = "bogus" }), ErrUnknownParallelism},
		{"train pipeline on a baseline", "train", admissionTrain(func(c *Config) { c.Strategy = "ring"; c.Parallelism = "pipeline" }), ErrUnknownParallelism},
		{"train more groups than SoCs", "train", admissionTrain(func(c *Config) { c.Groups = 64 }), ErrBadOption},
		{"train negative epochs", "train", admissionTrain(func(c *Config) { c.Epochs = -1 }), ErrBadOption},
		{"train negative batch", "train", admissionTrain(func(c *Config) { c.GlobalBatch = -1 }), ErrBadOption},
		{"train negative LR", "train", admissionTrain(func(c *Config) { c.LR = -1 }), ErrBadOption},
		{"train negative samples", "train", admissionTrain(func(c *Config) { c.TrainSamples = -5 }), ErrBadOption},
		{"train unknown model", "train", admissionTrain(func(c *Config) { c.Model = "alexnet" }), ErrUnknownModel},
		{"distributed more groups than SoCs", "distributed", admissionDist(func(c *DistributedConfig) { c.Groups = 9 }), ErrBadOption},
		{"distributed auto groups", "distributed", admissionDist(func(c *DistributedConfig) { c.Groups = -1 }), ErrBadOption},
		{"distributed negative LR", "distributed", admissionDist(func(c *DistributedConfig) { c.LR = -1 }), ErrBadOption},
		{"distributed negative fleet", "distributed", admissionDist(func(c *DistributedConfig) { c.NumSoCs = -2 }), ErrBadOption},
		{"distributed negative samples", "distributed", admissionDist(func(c *DistributedConfig) { c.ValSamples = -5 }), ErrBadOption},
		{"distributed unknown parallelism", "distributed", admissionDist(func(c *DistributedConfig) { c.Parallelism = "bogus" }), ErrUnknownParallelism},
		{"distributed epoch-0 resize", "distributed", admissionDist(func(c *DistributedConfig) { c.ResizeSchedule = []ResizeEvent{{Epoch: 0, SoCs: 4}} }), ErrBadOption},
		{"serve negative SLO", "serve", ServeConfig{SLO: -1}, ErrBadOption},
		{"serve unknown generation", "serve", ServeConfig{Generation: "sd999"}, ErrUnknownGeneration},
	}

	srv := NewServer(ServerConfig{TotalSoCs: 32})
	defer srv.Close()
	cl := srv.Client()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			var h any
			var err error
			switch cfg := c.cfg.(type) {
			case Config:
				h, err = cl.Submit(ctx, cfg)
			case DistributedConfig:
				h, err = cl.SubmitDistributed(ctx, cfg)
			case ServeConfig:
				h, err = cl.Serve(ctx, cfg)
			}
			if !errors.Is(err, c.want) || !reflect.ValueOf(h).IsNil() {
				t.Fatalf("in-process submit: handle %v, err %v; want no handle and errors.Is(%v)", h, err, c.want)
			}

			raw, err := json.Marshal(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(server.SubmitRequest{Tenant: "t", Kind: c.kind, Config: raw})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.want.Error()) {
				t.Fatalf("daemon answered %s %q, want 400 naming %q", resp.Status, bytes.TrimSpace(msg), c.want)
			}
			health, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatalf("daemon down after the rejection: %v", err)
			}
			health.Body.Close()
			if health.StatusCode != http.StatusOK {
				t.Fatalf("healthz: %s", health.Status)
			}
		})
	}
	if n := len(srv.List()); n != 0 {
		t.Fatalf("rejected submissions queued %d jobs", n)
	}

	legal := []struct {
		name string
		cfg  any
	}{
		{"distributed pipeline caps at 9 groups", admissionDist(func(c *DistributedConfig) { c.Groups = 9; c.Parallelism = "pipeline" })},
		{"distributed auto caps at 9 groups", admissionDist(func(c *DistributedConfig) { c.Groups = 9; c.Parallelism = "auto" })},
		{"train pipeline caps at 64 groups", admissionTrain(func(c *Config) { c.Groups = 64; c.Parallelism = "pipeline" })},
		{"train auto caps at 64 groups", admissionTrain(func(c *Config) { c.Groups = 64; c.Parallelism = "auto" })},
		{"train ring ignores 64 groups", admissionTrain(func(c *Config) { c.Groups = 64; c.Strategy = "ring" })},
	}
	for _, c := range legal {
		t.Run(c.name, func(t *testing.T) {
			var err error
			switch cfg := c.cfg.(type) {
			case Config:
				_, err = Run(ctx, cfg)
			case DistributedConfig:
				_, err = RunDistributed(ctx, cfg)
			}
			if err != nil {
				t.Fatalf("a config that completes was refused or failed: %v", err)
			}
		})
	}
}

// Distributed jobs through Dial: the daemon admits and runs the config
// the client marshaled, and the report that comes back over HTTP is the
// in-process one.
func TestRemoteSubmitDistributedRoundTrip(t *testing.T) {
	cfg := admissionDist(func(c *DistributedConfig) { c.Epochs = 2; c.Groups = 2 })
	want, err := RunDistributed(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(ServerConfig{TotalSoCs: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	h, err := Dial(ts.URL).SubmitDistributed(context.Background(), cfg, WithTenant("mesh"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.EpochAccuracies, want.EpochAccuracies) || !reflect.DeepEqual(got.Topology, want.Topology) {
		t.Fatalf("remote report %v / %v, in-process %v / %v",
			got.EpochAccuracies, got.Topology, want.EpochAccuracies, want.Topology)
	}
}

// FuzzAdmitWire feeds raw bytes to the daemon's admission, the decode
// and admit half of fromWire, for every kind in the table: it must
// never panic, and every rejection must wrap one of errors.go's
// sentinels, which is what lets the daemon answer 400 with a name
// rather than crash. (The build half allocates the job's data and
// cluster, so it is not fuzzed.) Seeds: one valid config per kind.
func FuzzAdmitWire(f *testing.F) {
	for _, cfg := range []any{
		admissionTrain(func(*Config) {}),
		admissionDist(func(*DistributedConfig) {}),
		ServeConfig{Model: "lenet5", Dataset: "fmnist", NumSoCs: 8, Hours: 1},
	} {
		raw, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	sentinels := []error{
		ErrUnknownModel, ErrUnknownDataset, ErrUnknownStrategy, ErrUnknownMixedMode,
		ErrUnknownGeneration, ErrBadTopology, ErrBadOption, ErrBadModelSpec,
		ErrUnknownParallelism, ErrBadPlan,
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for name, k := range kinds {
			var err error
			switch k := k.(type) {
			case *jobKind[Config]:
				_, _, err = k.admitWire(raw, runOptions{})
			case *jobKind[DistributedConfig]:
				_, _, err = k.admitWire(raw, runOptions{})
			case *jobKind[ServeConfig]:
				_, _, err = k.admitWire(raw, runOptions{})
			default:
				t.Fatalf("kind %q: %T is not a kind this fuzz target knows", name, k)
			}
			if err != nil && !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(err, s) }) {
				t.Fatalf("kind %q rejected %q without a sentinel: %v", name, raw, err)
			}
		}
	})
}
