package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"

	"socflow"
	"socflow/internal/metrics"
)

// trainCmd is a parsed `socflow train` command line:
//
//	socflow train --model resnet18 --dataset cifar10 --socs 32 \
//	    --groups 8 --strategy socflow --epochs 12 --parallel 4 --trace
type trainCmd struct {
	cfg                  socflow.Config
	sub                  *submitter
	parallel             int
	trace                bool
	metricsOut, traceOut string
}

// parseTrain refuses --server with any flag that acts on this
// process's run only: a daemon never receives them.
func parseTrain(args []string) (*trainCmd, error) {
	c := &trainCmd{}
	cfg := &c.cfg
	fs := newFlags("train")
	jobFlags(fs, &cfg.Model, &cfg.Dataset, &cfg.NumSoCs, &cfg.Seed, &cfg.Generation)
	fs.StringVar(&cfg.Strategy, "strategy", "socflow", "strategy: "+strings.Join(socflow.Strategies(), "|"))
	fs.IntVar(&cfg.Groups, "groups", 8, "SoCFlow logical groups")
	fs.StringVar(&cfg.Mixed, "mixed", "auto", "SoCFlow processor mode: auto|fp32|int8|half")
	fs.IntVar(&cfg.Epochs, "epochs", 12, "functional epochs")
	fs.IntVar(&cfg.GlobalBatch, "batch", 0, "functional batch per group (0 = default)")
	fs.IntVar(&cfg.TrainSamples, "samples", 960, "synthetic training samples")
	fs.Float64Var(&cfg.TargetAccuracy, "target", 0, "stop at this validation accuracy (0 = run all epochs)")
	fs.IntVar(&c.parallel, "parallel", 0, "host worker threads (0 = all CPUs; local runs only)")
	fs.BoolVar(&c.trace, "trace", false, "stream per-epoch progress to stderr (local runs only)")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the run's metrics snapshot as JSON to this file (local runs only)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the run's spans in Chrome trace_event JSON to this file (local runs only)")
	c.sub = submitFlags(fs)
	fs.Parse(args)
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && c.sub.url != "" && slices.Contains([]string{"parallel", "trace", "metrics-out", "trace-out"}, f.Name) {
			err = fmt.Errorf("--%s acts on a local run only; a daemon never receives it, so it cannot go with --server", f.Name)
		}
	})
	return c, err
}

// train runs one training job and prints per-epoch accuracy plus the
// final report.
func train(args []string) int {
	c, err := parseTrain(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "socflow train:", err)
		return 2
	}
	// Ctrl-C cancels the run between iterations instead of killing the
	// process mid-epoch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cl, opts, release := c.sub.client(c.cfg.NumSoCs)
	defer release()
	if c.parallel > 0 {
		opts = append(opts, socflow.WithParallelism(c.parallel))
	}
	if c.trace {
		opts = append(opts, socflow.WithTrace(os.Stderr))
	}
	if c.metricsOut != "" || c.traceOut != "" {
		opts = append(opts, socflow.WithMetrics(metrics.New()))
	}
	h, err := cl.Submit(ctx, c.cfg, opts...)
	if err != nil {
		return fail("train", err)
	}
	c.sub.submitted(h.ID())
	rep, err := h.Wait(ctx)
	if err == nil {
		err = errors.Join(writeOut(c.metricsOut, rep.Metrics.WriteJSON), writeOut(c.traceOut, rep.Metrics.WriteChromeTrace))
	}
	if err != nil {
		return fail("train", err)
	}

	fmt.Printf("strategy=%s model=%s dataset=%s socs=%d\n", rep.Strategy, rep.Model, rep.Dataset, c.cfg.NumSoCs)
	for e, acc := range rep.EpochAccuracies {
		fmt.Printf("  epoch %2d  val-acc %5.1f%%\n", e+1, 100*acc)
	}
	fmt.Printf("best accuracy       : %.1f%%\n", 100*rep.BestAccuracy)
	fmt.Printf("simulated time      : %.1f s (%.2f s/epoch)\n", rep.SimSeconds, rep.MeanEpochSeconds)
	fmt.Printf("fleet energy        : %.1f kJ\n", rep.EnergyKJ)
	fmt.Printf("est. hours to paper-scale convergence: %.2f h\n", rep.EstimatedHoursToConverge)
	if rep.EpochsToTarget > 0 {
		fmt.Printf("target reached at epoch %d (%.1f simulated s)\n", rep.EpochsToTarget, rep.SimSecondsToTarget)
	}
	total := rep.ComputeSeconds + rep.SyncSeconds + rep.UpdateSeconds
	if total > 0 {
		fmt.Printf("breakdown           : compute %.0f%%  sync %.0f%%  update %.0f%%\n",
			100*rep.ComputeSeconds/total, 100*rep.SyncSeconds/total, 100*rep.UpdateSeconds/total)
	}
	return 0
}
