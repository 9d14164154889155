package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"testing"
	"time"

	"socflow"
	"socflow/internal/core"
	"socflow/internal/metrics"
	"socflow/internal/server"
)

// A training campaign that outlives one idle window is the control
// plane's park/resume: a tidal server parks the job as the daytime
// peak reclaims its SoCs, and resumes it from the park checkpoint when
// the night trough returns them. These tests drive that path through
// the facade, the only one there is.

// Hours of the default tidal trace: at 03:00 a 32-SoC server schedules
// 30 SoCs, at 15:00 only 4.
const (
	troughHour = 3
	peakHour   = 15
)

// campaignCfg is a small VGG-11/CIFAR-10 job on 16 SoCs in 8 groups.
func campaignCfg(epochs int) socflow.Config {
	return socflow.Config{
		JobSpec: socflow.JobSpec{
			Model: "vgg11", Dataset: "cifar10", Epochs: epochs,
			TrainSamples: 320, ValSamples: 80, GlobalBatch: 12, LR: 0.02, Seed: 42,
		},
		NumSoCs: 16,
		Groups:  8,
		Mixed:   "fp32",
	}
}

// boundary is a WithTrace writer that holds the job at its first epoch
// boundary until released: the trace line is written on the job's own
// goroutine, between epochs.
type boundary struct {
	hit, release chan struct{}
	once         sync.Once
}

func newBoundary() *boundary {
	return &boundary{hit: make(chan struct{}), release: make(chan struct{})}
}

func (b *boundary) Write(p []byte) (int, error) {
	b.once.Do(func() { close(b.hit) })
	<-b.release
	return len(p), nil
}

// spanNights submits cfg to a tidal server at the trough, walks the
// clock to the peak while the job sits at its first epoch boundary, and
// back to the trough once it has parked. It returns the report, the
// job's final status, the epochs its event stream carried, and the
// epoch it parked at.
func spanNights(t *testing.T, cfg socflow.Config, opts ...socflow.Option) (*socflow.Report, socflow.JobStatus, []int, int) {
	t.Helper()
	srv := socflow.NewServer(socflow.ServerConfig{TotalSoCs: 32, Tidal: true, StartHour: troughHour})
	defer srv.Close()
	ctx := context.Background()
	b := newBoundary()
	h, err := srv.Client().Submit(ctx, cfg, append(opts, socflow.WithTrace(b))...)
	if err != nil {
		t.Fatal(err)
	}
	events := h.Events()
	<-b.hit
	srv.SetHour(peakHour)
	if st, _ := h.Status(ctx); st.State != socflow.JobParking {
		t.Fatalf("the peak left the job %s, want parking", st.State)
	}
	close(b.release)
	parked := waitState(t, h, socflow.JobParked)
	srv.SetHour(troughHour)
	rep, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []int
	for e := range events {
		if e.Kind == metrics.KindEpoch {
			epochs = append(epochs, e.Epoch)
		}
	}
	return rep, st, epochs, parked.EpochsDone
}

// waitState blocks until the job's status reaches want, by polling.
func waitState(t *testing.T, h *socflow.JobHandle, want socflow.JobState) socflow.JobStatus {
	t.Helper()
	for {
		st, err := h.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job ended %s before reaching %s", st.State, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCampaignSpansNights(t *testing.T) {
	cfg := campaignCfg(8)
	rep, st, epochs, _ := spanNights(t, cfg)
	if st.State != socflow.JobDone || st.Parks != 1 || st.Resumes != 1 {
		t.Fatalf("the job did not span two nights: %+v", st)
	}
	if len(rep.EpochAccuracies) != cfg.Epochs || len(epochs) != cfg.Epochs {
		t.Fatalf("trained %d epochs (%d epoch events), want all %d", len(rep.EpochAccuracies), len(epochs), cfg.Epochs)
	}
	if rep.BestAccuracy < 0.3 {
		t.Fatalf("the job failed to learn across nights: %v", rep.BestAccuracy)
	}
}

func TestCampaignPersistsAndResumes(t *testing.T) {
	cfg := campaignCfg(4)
	dir := t.TempDir()
	var logs bytes.Buffer
	rep, _, epochs, parkedAt := spanNights(t, cfg,
		socflow.WithCheckpointEvery(1, dir), socflow.WithLogger(log.New(&logs, "", 0)))
	if parkedAt < 1 {
		t.Fatalf("parked after %d epochs; the boundary holds it after the first", parkedAt)
	}
	if want := fmt.Sprintf("from epoch %d", parkedAt); !bytes.Contains(logs.Bytes(), []byte(want)) {
		t.Fatalf("the resumed segment did not start at the parked epoch (%q):\n%s", want, logs.String())
	}
	if len(rep.EpochAccuracies) != cfg.Epochs {
		t.Fatalf("report covers %d epochs, want %d", len(rep.EpochAccuracies), cfg.Epochs)
	}
	for e, got := range epochs {
		if got != e {
			t.Fatalf("epoch events %v, want 0..%d once each", epochs, cfg.Epochs-1)
		}
	}
	store, err := core.NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := store.Latest()
	if err != nil || cp == nil || cp.Epoch != cfg.Epochs {
		t.Fatalf("persisted checkpoint %v (err %v), want the final epoch %d", cp, err, cfg.Epochs)
	}
}

func TestCampaignValidation(t *testing.T) {
	srv := socflow.NewServer(socflow.ServerConfig{TotalSoCs: 8})
	defer srv.Close()
	cl := srv.Client()
	if _, err := cl.Submit(context.Background(), campaignCfg(1)); !errors.Is(err, server.ErrQuotaExceeded) {
		t.Fatalf("16 SoCs on an 8-SoC cluster: got %v, want ErrQuotaExceeded", err)
	}
	cfg := campaignCfg(-1)
	cfg.NumSoCs = 8
	if _, err := cl.Submit(context.Background(), cfg); !errors.Is(err, socflow.ErrBadOption) {
		t.Fatalf("negative epoch budget: got %v, want ErrBadOption", err)
	}
}
