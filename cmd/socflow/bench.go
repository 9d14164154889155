package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"socflow/internal/core"
	"socflow/internal/exp"
	"socflow/internal/metrics"
)

// benchCmd is a parsed `socflow bench` command line: it regenerates the
// paper's evaluation tables and figures (exp.Catalog) and prints them
// in paper-style rows.
//
//	socflow bench --exp fig8            # one experiment
//	socflow bench --exp all             # everything
//	socflow bench --exp table3 --full   # full 8-scenario grid
//	socflow bench --list                # experiment catalog
//
// With --metrics-out the run collects an observability report (epoch
// spans on both clocks, sim latency/energy totals, transport byte
// counters) and writes it as JSON; --trace-out writes the same spans in
// Chrome trace_event format, loadable in Perfetto or chrome://tracing.
type benchCmd struct {
	opts                 exp.Options
	ids                  string
	full, list           bool
	metricsOut, traceOut string
}

func parseBench(args []string) *benchCmd {
	c := &benchCmd{}
	o := &c.opts
	fs := newFlags("bench")
	fs.StringVar(&c.ids, "exp", "", "experiment id (see --list), or 'all'")
	fs.BoolVar(&c.full, "full", false, "run the full 8-scenario grid where applicable")
	fs.BoolVar(&c.list, "list", false, "list available experiments")
	fs.IntVar(&o.TrainSamples, "samples", 0, "functional training samples (0 = default 960)")
	fs.IntVar(&o.Epochs, "epochs", 0, "functional epochs (0 = default 12)")
	fs.IntVar(&o.NumSoCs, "socs", 0, "fleet size (0 = default 32)")
	fs.IntVar(&o.Groups, "groups", 0, "SoCFlow logical groups (0 = per-experiment default)")
	fs.Uint64Var(&o.Seed, "seed", 0, "random seed (0 = default 1)")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write the run report (tables + metrics snapshot) as JSON to this file")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the run's spans in Chrome trace_event JSON to this file")
	fs.Parse(args)
	return c
}

// bench runs the experiments --exp names, every one sorted by id for
// "all". Each runs even if an earlier one fails; errors are recorded in
// the report and turn the exit status non-zero at the end.
func bench(args []string) int {
	c := parseBench(args)
	run := exp.Catalog()
	if c.list || c.ids == "" {
		fmt.Println("experiments:")
		for _, e := range run {
			fmt.Printf("  %-8s %s\n", e.ID, e.Desc)
		}
		fmt.Println("  all      run everything")
		return 0
	}
	if c.ids == "all" {
		sort.Slice(run, func(i, j int) bool { return run[i].ID < run[j].ID })
	} else {
		run = nil
		for _, id := range strings.Split(c.ids, ",") {
			e, ok := exp.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try --list\n", id)
				return 2
			}
			run = append(run, e)
		}
	}

	o := c.opts
	var reg *metrics.Registry
	if c.metricsOut != "" || c.traceOut != "" {
		reg = metrics.New()
		// Pre-register the headline traffic counters so a purely
		// simulated run reports explicit zeros instead of omitting them.
		reg.Counter("transport.sent.bytes")
		reg.Counter("transport.recv.bytes")
		reg.Counter("sim.net.bytes")
		o.Metrics = reg
	}
	rep := &exp.Report{}
	o.Kernels = core.BeginKernelHarvest(reg)
	for _, e := range run {
		span := reg.BeginSpan(e.ID, "experiment", 0)
		tables, err := e.Run(o, c.full)
		span.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			rep.AddError(e.ID, err)
			continue
		}
		rep.Add(e.ID, tables)
	}
	o.Kernels.Finish()
	for _, e := range rep.Experiments {
		for _, t := range e.Tables {
			fmt.Println(t)
		}
	}
	rep.Metrics = reg.Snapshot()
	if err := errors.Join(writeOut(c.metricsOut, rep.WriteJSON), writeOut(c.traceOut, rep.Metrics.WriteChromeTrace)); err != nil {
		return fail("bench", err)
	}
	if rep.Failed() {
		return 1
	}
	return 0
}
