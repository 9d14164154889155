package socflow

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"socflow/internal/metrics"
	"socflow/internal/parallel"
)

// WithMetrics must fill Report.Metrics with the run's dual-clock
// observations: per-epoch stats and spans, kernel counters, simulated
// totals — and the snapshot must survive both exporters.
func TestWithMetricsReport(t *testing.T) {
	reg := metrics.New()
	cfg := fastCfg("socflow")
	cfg.Epochs = 2
	rep, err := Run(context.Background(), cfg, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Metrics
	if snap == nil {
		t.Fatal("Report.Metrics is nil with WithMetrics set")
	}
	if len(snap.Epochs) != 2 {
		t.Fatalf("epoch stats: %d, want 2", len(snap.Epochs))
	}
	for i, e := range snap.Epochs {
		if e.Epoch != i || e.WallSeconds <= 0 || e.SimSeconds <= 0 {
			t.Fatalf("epoch stat %d malformed: %+v", i, e)
		}
	}
	if snap.Counters["train.epochs"] != 2 {
		t.Fatalf("train.epochs = %d, want 2", snap.Counters["train.epochs"])
	}
	if snap.Counters["tensor.gemm.ops"] <= 0 {
		t.Fatal("kernel harvest missing: no GEMM ops counted")
	}
	if snap.Gauges["sim.seconds.total"] != rep.SimSeconds {
		t.Fatalf("sim.seconds.total %v != report SimSeconds %v",
			snap.Gauges["sim.seconds.total"], rep.SimSeconds)
	}
	if snap.Gauges["sim.energy.total.joules"] <= 0 {
		t.Fatal("energy meter not published")
	}
	// Both clocks must be represented in the span stream.
	var wall, sim int
	for _, s := range snap.Spans {
		switch s.Clock {
		case metrics.ClockWall:
			wall++
		case metrics.ClockSim:
			sim++
		}
	}
	if wall == 0 || sim == 0 {
		t.Fatalf("span clocks: %d wall, %d sim — want both > 0", wall, sim)
	}

	var jsonBuf, traceBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(jsonBuf.Bytes()) {
		t.Fatal("WriteJSON produced invalid JSON")
	}
	if err := snap.WriteChromeTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceBuf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome trace not parseable: %v", err)
	}
	if len(ct.TraceEvents) < wall+sim {
		t.Fatalf("chrome trace has %d events for %d spans", len(ct.TraceEvents), wall+sim)
	}
}

// The distributed track must meter real wire traffic and stamp epochs
// on the wall clock.
func TestDistributedMetricsReport(t *testing.T) {
	reg := metrics.New()
	rep, err := RunDistributed(context.Background(), DistributedConfig{
		JobSpec:   JobSpec{Epochs: 2, TrainSamples: 240, ValSamples: 60},
		NumSoCs:   4,
		Groups:    2,
		InProcess: true,
	}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Metrics
	if snap == nil {
		t.Fatal("DistributedReport.Metrics is nil with WithMetrics set")
	}
	if len(snap.Epochs) != 2 {
		t.Fatalf("epoch stats: %d, want 2", len(snap.Epochs))
	}
	if snap.Counters["transport.sent.bytes"] <= 0 || snap.Counters["transport.recv.bytes"] <= 0 {
		t.Fatalf("transport counters empty: %+v", snap.Counters)
	}
	if snap.Counters["runtime.gradsync.bytes"] <= 0 {
		t.Fatal("gradient-sync bytes not counted")
	}
	if snap.Counters["runtime.iterations"] <= 0 {
		t.Fatal("iterations not counted")
	}
}

// kernelCounters are the per-run kernel and layer counters a registry
// receives; every one must be the run's own.
var kernelCounters = []string{
	"tensor.gemm.ops", "tensor.gemm.flops", "tensor.im2col.ops",
	"nn.conv.forward", "nn.conv.backward", "nn.dense.forward", "nn.dense.backward",
}

// Two runs that overlap in time must each publish exactly their own
// kernel counts — the counts of the same config run alone — and each
// must time its GEMMs for as long as it runs, whichever finishes first.
func TestConcurrentRunsKeepTheirOwnKernelStats(t *testing.T) {
	cfgs := [2]Config{fastCfg("socflow"), fastCfg("socflow")}
	cfgs[0].Epochs, cfgs[1].Epochs = 2, 3
	cfgs[1].Seed = 9

	var solo [2]*metrics.RunReport
	for i, cfg := range cfgs {
		rep, err := Run(context.Background(), cfg, WithMetrics(metrics.New()))
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = rep.Metrics
	}

	// Both runs wait for each other at their first epoch end, so each
	// one's kernels run while the other is live.
	var arrive sync.WaitGroup
	arrive.Add(2)
	both := make(chan struct{})
	go func() { arrive.Wait(); close(both) }()
	var (
		wg   sync.WaitGroup
		reps [2]*metrics.RunReport
		errs [2]error
	)
	for i, cfg := range cfgs {
		reg := metrics.New()
		var once sync.Once
		reg.Subscribe(func(e metrics.Event) {
			once.Do(func() {
				arrive.Done()
				select {
				case <-both:
				case <-time.After(10 * time.Second):
				}
			})
		})
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			rep, err := Run(context.Background(), cfg, WithMetrics(reg))
			if err == nil {
				reps[i] = rep.Metrics
			}
			errs[i] = err
		}(i, cfg)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, name := range kernelCounters {
			if got, want := reps[i].Counters[name], solo[i].Counters[name]; got != want || want <= 0 {
				t.Errorf("run %d: %s = %d concurrently, %d alone", i, name, got, want)
			}
		}
		if s := reps[i].Gauges["tensor.gemm.seconds"]; !(s > 0) {
			t.Errorf("run %d: tensor.gemm.seconds = %v, want > 0", i, s)
		}
	}
}

// Two runs that overlap in time must each publish exactly the simulated
// network traffic of their own cluster — the simnet counters of the same
// config run alone — not whatever the other run simulates meanwhile.
func TestConcurrentRunsKeepTheirOwnSimnetStats(t *testing.T) {
	cfgs := [2]Config{fastCfg("socflow"), fastCfg("socflow")}
	cfgs[0].Epochs, cfgs[1].Epochs = 2, 3
	cfgs[1].Seed, cfgs[1].NumSoCs = 9, 8

	var solo [2]*metrics.RunReport
	for i, cfg := range cfgs {
		rep, err := Run(context.Background(), cfg, WithMetrics(metrics.New()))
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = rep.Metrics
	}

	// Both runs wait for each other at their first epoch end, after
	// each has priced (and simulated) its first epoch and before either
	// publishes.
	var arrive sync.WaitGroup
	arrive.Add(2)
	both := make(chan struct{})
	go func() { arrive.Wait(); close(both) }()
	var (
		wg   sync.WaitGroup
		reps [2]*metrics.RunReport
		errs [2]error
	)
	for i, cfg := range cfgs {
		reg := metrics.New()
		var once sync.Once
		reg.Subscribe(func(e metrics.Event) {
			once.Do(func() {
				arrive.Done()
				select {
				case <-both:
				case <-time.After(10 * time.Second):
				}
			})
		})
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			rep, err := Run(context.Background(), cfg, WithMetrics(reg))
			if err == nil {
				reps[i] = rep.Metrics
			}
			errs[i] = err
		}(i, cfg)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, name := range []string{"simnet.flows", "simnet.bytes"} {
			if got, want := reps[i].Counters[name], solo[i].Counters[name]; got != want || want <= 0 {
				t.Errorf("run %d: %s = %d concurrently, %d alone", i, name, got, want)
			}
		}
		const g = "simnet.makespan.seconds"
		if got, want := reps[i].Gauges[g], solo[i].Gauges[g]; got != want || !(want > 0) {
			t.Errorf("run %d: %s = %v concurrently, %v alone", i, g, got, want)
		}
	}
}

// Two serving jobs that overlap in time must each publish their own
// engine's kernel counts and simulated network traffic — the figures
// the same config publishes when it serves alone — not the process's
// or the other job's.
func TestConcurrentServeJobsKeepTheirOwnStats(t *testing.T) {
	cfgs := [2]ServeConfig{smokeServeConfig(), smokeServeConfig()}
	cfgs[0].Hours, cfgs[1].Hours = 2, 3
	cfgs[1].Seed, cfgs[1].NumSoCs, cfgs[1].PeakRPS = 9, 12, 3
	serveAlone := func(cfg ServeConfig) (*metrics.RunReport, error) {
		srv := NewServer(ServerConfig{})
		defer srv.Close()
		h, err := srv.Client().Serve(context.Background(), cfg, WithMetrics(metrics.New()))
		if err != nil {
			return nil, err
		}
		rep, err := h.Wait(context.Background())
		if err != nil {
			return nil, err
		}
		return rep.Metrics, nil
	}
	var solo [2]*metrics.RunReport
	for i, cfg := range cfgs {
		rep, err := serveAlone(cfg)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = rep
	}

	// Both jobs wait for each other at their first hour's end, after
	// each has replayed (and simulated) that hour and before either
	// publishes.
	var arrive sync.WaitGroup
	arrive.Add(2)
	both := make(chan struct{})
	go func() { arrive.Wait(); close(both) }()
	var (
		wg   sync.WaitGroup
		reps [2]*metrics.RunReport
		errs [2]error
	)
	for i, cfg := range cfgs {
		var once sync.Once
		cfg.HourEnd = func(ServeHourStat) {
			once.Do(func() {
				arrive.Done()
				select {
				case <-both:
				case <-time.After(10 * time.Second):
				}
			})
		}
		wg.Add(1)
		go func(i int, cfg ServeConfig) {
			defer wg.Done()
			reps[i], errs[i] = serveAlone(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, name := range []string{"simnet.flows", "simnet.bytes", "nn.conv.forward"} {
			if got, want := reps[i].Counters[name], solo[i].Counters[name]; got != want || want <= 0 {
				t.Errorf("job %d: %s = %d concurrently, %d alone", i, name, got, want)
			}
		}
		const g = "simnet.makespan.seconds"
		if got, want := reps[i].Gauges[g], solo[i].Gauges[g]; got != want || !(want > 0) {
			t.Errorf("job %d: %s = %v concurrently, %v alone", i, g, got, want)
		}
		// The per-stage latency split, as the latency itself.
		for _, name := range []string{"serve.latency.seconds", "serve.queue.seconds",
			"serve.stage0.compute.seconds", "serve.stage1.compute.seconds", "serve.boundary0.transfer.seconds"} {
			got, want := reps[i].Histograms[name], solo[i].Histograms[name]
			if got.Count != want.Count || got.Sum != want.Sum || want.Count <= 0 {
				t.Errorf("job %d: %s count %d sum %v concurrently, %d %v alone", i, name, got.Count, got.Sum, want.Count, want.Sum)
			}
		}
	}
	if reps[0].Counters["simnet.flows"] == reps[1].Counters["simnet.flows"] {
		t.Errorf("both jobs published %d simnet flows; want configs that simulate different traffic", reps[0].Counters["simnet.flows"])
	}
}

// Two overlapping runs at different WithParallelism widths must each
// fan their groups out at their own width for as long as they run —
// A starts, B starts, A ends, B ends — and leave the process default
// as they found it.
func TestConcurrentRunsKeepTheirOwnParallelism(t *testing.T) {
	d := parallel.Workers()
	widths := [2]int{d + 1, d + 2}
	cfgs := [2]Config{fastCfg("socflow"), fastCfg("socflow")}
	cfgs[0].Epochs, cfgs[1].Epochs = 2, 3

	wait := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Error("runs never overlapped")
		}
	}
	aStarted, bStarted, aEnded := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var (
		wg   sync.WaitGroup
		seen [2][]float64 // the run's parallel.width gauge at each epoch end
		errs [2]error
	)
	for i, cfg := range cfgs {
		reg := metrics.New()
		reg.Subscribe(func(e metrics.Event) {
			if e.Kind != metrics.KindEpoch {
				return
			}
			seen[i] = append(seen[i], reg.Gauge("parallel.width").Value())
			switch {
			case i == 0 && e.Epoch == 0:
				close(aStarted)
				wait(bStarted)
			case i == 1 && e.Epoch == 0:
				close(bStarted)
				wait(aEnded)
			}
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 1 {
				wait(aStarted)
			}
			_, errs[i] = Run(context.Background(), cfg, WithParallelism(widths[i]), WithMetrics(reg))
			if i == 0 {
				close(aEnded)
			}
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(seen[i]) != cfgs[i].Epochs {
			t.Fatalf("run %d: %d epoch events, want %d", i, len(seen[i]), cfgs[i].Epochs)
		}
		for e, w := range seen[i] {
			if w != float64(widths[i]) {
				t.Errorf("run %d epoch %d trained at width %v, want %d", i, e, w, widths[i])
			}
		}
	}
	if got := parallel.Workers(); got != d {
		t.Errorf("process default width is %d after both runs, want %d as before", got, d)
	}
}
