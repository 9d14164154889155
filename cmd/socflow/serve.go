package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"

	"socflow"
)

// serveCmd is a parsed `socflow serve` command line: an inference
// window in which the model is partitioned into a pipeline, replicated
// to the diurnal request tide and driven by the SLO-aware dynamic
// batcher. On a daemon, serving co-locates with (and parks) preemptible
// training.
//
//	socflow serve --model vgg11 --dataset cifar10 --stages 2 \
//	    --slo 0.5 --peak-rps 20 --hours 24 --socs 32
type serveCmd struct {
	cfg     socflow.ServeConfig
	sub     *submitter
	jsonOut bool
}

func parseServe(args []string) *serveCmd {
	c := &serveCmd{}
	cfg := &c.cfg
	fs := newFlags("serve")
	jobFlags(fs, &cfg.Model, &cfg.Dataset, &cfg.NumSoCs, &cfg.Seed, &cfg.Generation)
	fs.IntVar(&cfg.Stages, "stages", 2, "pipeline stages per replica")
	fs.IntVar(&cfg.MaxBatch, "max-batch", 8, "dynamic batching cap")
	fs.Float64Var(&cfg.MaxQueueDelay, "max-delay", 0.05, "max queue delay before a partial batch launches (simulated s)")
	fs.Float64Var(&cfg.SLO, "slo", 0.5, "per-request latency budget (simulated s)")
	fs.Float64Var(&cfg.PeakRPS, "peak-rps", 20, "request rate at the diurnal peak")
	fs.Float64Var(&cfg.StartHour, "start-hour", 0, "hour of day the window opens [0,24)")
	fs.Float64Var(&cfg.Hours, "hours", 24, "serving window length")
	fs.IntVar(&cfg.Samples, "samples", 256, "synthetic request sample pool")
	fs.StringVar(&cfg.CheckpointDir, "checkpoint-dir", "", "serve the newest checkpoint in this directory")
	fs.BoolVar(&c.jsonOut, "json", false, "print the full report as JSON instead of the summary")
	c.sub = submitFlags(fs)
	fs.Parse(args)
	return c
}

// serve runs one serving window and prints its summary: hour by hour
// when local, then the window's totals.
func serve(args []string) int {
	c := parseServe(args)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if c.sub.url == "" && !c.jsonOut {
		c.cfg.HourEnd = func(s socflow.ServeHourStat) {
			fmt.Printf("  hour %4.1f  busy %3.0f%%  replicas %2d (%2d SoCs)  req %5d  shed %4d  slo %5.1f%%  p99 %6.4fs\n",
				s.Hour, 100*s.Busy, s.Replicas, s.SoCs, s.Requests, s.Shed, 100*s.Attainment, s.P99Seconds)
		}
	}
	cl, opts, release := c.sub.client(c.cfg.NumSoCs)
	defer release()
	h, err := cl.Serve(ctx, c.cfg, opts...)
	if err != nil {
		return fail("serve", err)
	}
	c.sub.submitted(h.ID())
	rep, err := h.Wait(ctx)
	if err != nil {
		return fail("serve", err)
	}

	if c.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return fail("serve", err)
		}
		return 0
	}
	fmt.Printf("model=%s dataset=%s stages=%d window=%.1fh\n", rep.Model, rep.Dataset, rep.Stages, rep.Hours)
	fmt.Printf("requests            : %d (%d served, %d shed, %d abandoned)\n",
		rep.Requests, rep.Served, rep.Shed, rep.Canceled)
	fmt.Printf("SLO attainment      : %.2f%%\n", 100*rep.Attainment)
	fmt.Printf("latency             : p50 %.4fs  p99 %.4fs  mean %.4fs\n",
		rep.P50Seconds, rep.P99Seconds, rep.MeanSeconds)
	fmt.Printf("batches             : %d (max queue depth %d)\n", rep.Batches, rep.MaxQueueDepth)
	fmt.Printf("peak footprint      : %d replicas x %d stages\n", rep.PeakReplicas, rep.Stages)
	return 0
}
