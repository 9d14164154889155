// Command socflow-bench regenerates the paper's evaluation tables and
// figures on the simulated SoC-Cluster and prints them in paper-style
// rows.
//
// Usage:
//
//	socflow-bench --exp fig8            # one experiment
//	socflow-bench --exp all             # everything
//	socflow-bench --exp table3 --full   # full 8-scenario grid
//	socflow-bench --list                # experiment catalog
//
// With --metrics-out the run collects an observability report (epoch
// spans on both clocks, sim latency/energy totals, transport byte
// counters) and writes it as JSON; --trace-out writes the same spans in
// Chrome trace_event format, loadable in Perfetto or chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"socflow/internal/core"
	"socflow/internal/exp"
	"socflow/internal/metrics"
)

type experiment struct {
	id, desc string
	run      func(o exp.Options, full bool) ([]*exp.Table, error)
}

func catalog() []experiment {
	one := func(t *exp.Table, err error) ([]*exp.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*exp.Table{t}, nil
	}
	scenarios := func(full bool) []exp.Scenario {
		if full {
			return exp.Scenarios()
		}
		return exp.CoreScenarios()
	}
	return []experiment{
		{"fig3", "busy-SoC fraction over a day (tidal trace)", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return []*exp.Table{exp.ExpFig3()}, nil
		}},
		{"fig4a", "single-SoC training hours, CPU vs NPU", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return []*exp.Table{exp.ExpFig4a()}, nil
		}},
		{"fig4b", "communication latency vs SoC count", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return []*exp.Table{exp.ExpFig4b()}, nil
		}},
		{"fig4c", "FP32 vs INT8 convergence accuracy at 32 SoCs", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpFig4c(o))
		}},
		{"fig6", "accuracy vs logical-group count", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			var out []*exp.Table
			for _, m := range []string{"vgg11", "resnet18"} {
				t, err := exp.ExpFig6(m, o)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		}},
		{"table3", "convergence accuracy grid", func(o exp.Options, full bool) ([]*exp.Table, error) {
			return one(exp.ExpTable3(scenarios(full), o))
		}},
		{"fig8", "end-to-end training time grid", func(o exp.Options, full bool) ([]*exp.Table, error) {
			return one(exp.ExpFig8(scenarios(full), o))
		}},
		{"fig9", "training energy grid", func(o exp.Options, full bool) ([]*exp.Table, error) {
			return one(exp.ExpFig9(scenarios(full), o))
		}},
		{"fig10", "time-to-accuracy vs SoC count", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpFig10(exp.CoreScenarios()[0], o))
		}},
		{"fig11", "SoCFlow (60 SoCs) vs datacenter GPUs", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpFig11(o))
		}},
		{"fig12", "training-time breakdown", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			var out []*exp.Table
			for _, m := range []string{"vgg11", "resnet18"} {
				t, err := exp.ExpFig12(m, o)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		}},
		{"fig13", "ablation ladder", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			var out []*exp.Table
			for _, m := range []string{"vgg11", "resnet18"} {
				t, err := exp.ExpFig13(m, o)
				if err != nil {
					return nil, err
				}
				out = append(out, t)
			}
			return out, nil
		}},
		{"fig14", "mixed-precision accuracy-vs-time curves", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpFig14("vgg11", o))
		}},
		{"ext1", "extension: non-IID placement vs reshuffling", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpNonIID(o))
		}},
		{"ext2", "extension: group-size heuristic validation", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpHeuristic("vgg11", o))
		}},
		{"ext3", "extension: underclocking-aware rebalancing", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpUnderclocking(o))
		}},
		{"ext4", "extension: co-location via group-level preemption", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpPreemption(o))
		}},
		{"faults", "extension: accuracy under injected SoC crashes (0/1/2 + tidal leave/return), each detected by heartbeat and retried on the survivors", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpFaults(o))
		}},
		{"elastic", "extension: elastic recovery under the tidal trace (heartbeat detection, epoch retry, rejoin + state transfer)", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpElastic(o))
		}},
		{"colocation", "extension: SLO-batched serving resizes with the tide while co-located training parks and resumes", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpColocation(o))
		}},
		{"autopar", "extension: auto-parallelization planner vs data parallelism (ResNet-34, 8-32 SoCs)", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpAutopar(o))
		}},
		{"replan", "extension: elastic pipeline re-planning under stage crashes and tidal shrinks (fault-free bit-identity, predicted==executed)", func(o exp.Options, _ bool) ([]*exp.Table, error) {
			return one(exp.ExpReplan(o))
		}},
	}
}

func main() {
	var (
		expID      = flag.String("exp", "", "experiment id (see --list), or 'all'")
		full       = flag.Bool("full", false, "run the full 8-scenario grid where applicable")
		list       = flag.Bool("list", false, "list available experiments")
		samples    = flag.Int("samples", 0, "functional training samples (0 = default 960)")
		epochs     = flag.Int("epochs", 0, "functional epochs (0 = default 12)")
		socs       = flag.Int("socs", 0, "fleet size (0 = default 32)")
		groups     = flag.Int("groups", 0, "SoCFlow logical groups (0 = per-experiment default)")
		seed       = flag.Uint64("seed", 0, "random seed (0 = default 1)")
		metricsOut = flag.String("metrics-out", "", "write the run report (tables + metrics snapshot) as JSON to this file")
		traceOut   = flag.String("trace-out", "", "write the run's spans in Chrome trace_event JSON to this file")
	)
	flag.Parse()

	exps := catalog()
	if *list || *expID == "" {
		fmt.Println("experiments:")
		for _, e := range exps {
			fmt.Printf("  %-8s %s\n", e.id, e.desc)
		}
		fmt.Println("  all      run everything")
		return
	}

	o := exp.Options{TrainSamples: *samples, Epochs: *epochs, NumSoCs: *socs, Groups: *groups, Seed: *seed}

	var reg *metrics.Registry
	if *metricsOut != "" || *traceOut != "" {
		reg = metrics.New()
		// Pre-register the headline traffic counters so a purely
		// simulated run reports explicit zeros instead of omitting them.
		reg.Counter("transport.sent.bytes")
		reg.Counter("transport.recv.bytes")
		reg.Counter("sim.net.bytes")
		o.Metrics = reg
	}

	ids := map[string]experiment{}
	var order []string
	for _, e := range exps {
		ids[e.id] = e
		order = append(order, e.id)
	}
	// Friendly aliases for experiments better known by what they show.
	aliases := map[string]string{"scalability": "fig10"}
	var run []string
	if *expID == "all" {
		sort.Strings(order)
		run = order
	} else {
		for _, id := range strings.Split(*expID, ",") {
			if a, ok := aliases[id]; ok {
				id = a
			}
			if _, ok := ids[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try --list\n", id)
				os.Exit(2)
			}
			run = append(run, id)
		}
	}

	// Every experiment runs even if an earlier one fails; errors are
	// recorded in the report and turn the exit status non-zero at the
	// end.
	rep := &exp.Report{}
	o.Kernels = core.BeginKernelHarvest(reg)
	for _, id := range run {
		span := reg.BeginSpan(id, "experiment", 0)
		tables, err := ids[id].run(o, *full)
		span.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			rep.AddError(id, err)
			continue
		}
		rep.Add(id, tables)
	}
	o.Kernels.Finish()
	for _, e := range rep.Experiments {
		for _, t := range e.Tables {
			fmt.Println(t)
		}
	}
	rep.Metrics = reg.Snapshot()
	if *metricsOut != "" {
		if err := writeOut(*metricsOut, rep.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *metricsOut, err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeOut(*traceOut, rep.Metrics.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
	}
	if rep.Failed() {
		os.Exit(1)
	}
}

func writeOut(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
