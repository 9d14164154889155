package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"socflow/internal/metrics"
)

// layerMetric declares one rung of the per-layer ladder. Every rung
// names the package it belongs to as its prefix and, in moves, the
// end-to-end metric and workload it is expected to move — written down
// before anything is measured, so a later change can be held to it. An
// empty moves marks a layer-only rung no workload exercises yet.
type layerMetric struct {
	name, unit string
	higher     bool
	moves      []string // "metric@workload"
}

// Shorthands for the prediction column.
func ops(ws ...string) []string    { return at("ops_per_s", ws...) }
func allocs(ws ...string) []string { return at("allocs_per_op", ws...) }
func setup(ws ...string) []string  { return at("setup_s", ws...) }
func at(metric string, ws ...string) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = metric + "@" + w
	}
	return out
}

// layerMetrics is the ladder. Timings are medians over repeated calls
// from this package into the named package's exported functions at the
// shapes the named workload uses, with P workers; "count" rungs are
// exact integers harvested from the program's own WithMetrics registry
// or a returned struct, and must repeat exactly between runs of a
// commit.
var layerMetrics = []layerMetric{
	// tensor: the kernels under every functional workload.
	{"tensor.gemm_conv_gflops", "GFLOP/s", true, ops("train-conv", "serve-replay")},
	{"tensor.gemm_bwd_gflops", "GFLOP/s", true, ops("train-conv")},
	{"tensor.gemm_small_gflops", "GFLOP/s", true, ops("train-small", "mesh-dp")},
	{"tensor.im2col_gbps", "GB/s", true, ops("train-conv")},
	{"tensor.col2im_gbps", "GB/s", true, ops("train-conv")},
	{"tensor.softmax_ns_per_row", "ns", false, ops("train-small")},
	{"tensor.kernel_allocs_per_call", "count", false, allocs("train-conv")},
	{"tensor.gemm_flops_per_sample", "count", false, ops("train-conv")},

	// nn: layers and whole-model steps.
	{"nn.vgg11_fwd_ms", "ms", false, ops("train-conv")},
	{"nn.vgg11_bwd_ms", "ms", false, ops("train-conv")},
	{"nn.vgg11_opt_ms", "ms", false, ops("train-conv")},
	{"nn.lenet5_fwd_ms", "ms", false, ops("train-small", "mesh-dp")},
	{"nn.lenet5_bwd_ms", "ms", false, ops("train-small", "mesh-dp")},
	{"nn.lenet5_opt_ms", "ms", false, ops("train-small", "mesh-dp")},
	{"nn.resnet34_step_ms", "ms", false, ops("mesh-pipeline")},
	{"nn.tanh_ns_per_elem", "ns", false, ops("train-small")},
	{"nn.xent_us", "us", false, ops("train-small")},
	{"nn.lenet5_step_allocs", "count", false, allocs("train-small")},
	{"nn.vgg11_eval_fwd_ms_b8", "ms", false, ops("serve-replay")},

	// quant: the Mixed "auto" INT8 replica (flat on train-small share-wise).
	{"quant.fakequant_ns_per_elem", "ns", false, ops("train-conv")},
	{"quant.stochastic_ns_per_elem", "ns", false, ops("train-conv")},
	{"quant.int8_sgd_ns_per_param", "ns", false, ops("train-conv")},
	{"quant.logit_confidence_us", "us", false, ops("train-conv")},
	{"quant.int8_gemm_exact_gops", "GOP/s", true, nil}, // no workload selects Int8Kernels; kept for the Multiplier seam

	// parallel: dispatch cost and scaling.
	{"parallel.for_dispatch_ns", "ns", false, ops("train-small")},
	{"parallel.forkernel_dispatch_ns", "ns", false, ops("train-small")},
	{"parallel.for_allocs_per_call", "count", false, allocs("serve-replay", "train-conv")},
	{"parallel.gemm_scaling", "ratio", true, ops("train-conv")},

	// dataset
	{"dataset.batchinto_ns_per_sample", "ns", false, ops("train-small")},
	{"dataset.generate_ms", "ms", false, setup(trainingWorkloads...)},

	// core: the simulated track's per-step and per-epoch machinery.
	{"core.mixed_step_ms", "ms", false, ops("train-conv")},
	{"core.merge_ms", "ms", false, ops("train-conv")},
	{"core.map_us", "us", false, setup("train-conv", "train-small")},
	{"core.sim_epoch_s.train-conv", "s", false, nil}, // simulated clock: identical unless a change says it alters the cost model
	{"core.sim_epoch_s.train-small", "s", false, nil},
	{"core.sim_energy_kj.train-conv", "kJ", false, nil},
	{"core.sim_energy_kj.train-small", "kJ", false, nil},
	{"core.checkpoint_write_mbps", "MB/s", true, nil}, // layer-only until a checkpointing workload exists
	{"core.checkpoint_read_mbps", "MB/s", true, nil},

	// baselines: one Strategy.Run at exp-grid size.
	{"baselines.ring_run_ms", "ms", false, ops("exp-grid")},
	{"baselines.hipress_run_ms", "ms", false, ops("exp-grid")},
	{"baselines.fedavg_run_ms", "ms", false, ops("exp-grid")},

	// collective
	{"collective.ring_price_us", "us", false, ops("exp-grid", "sim-plan")},
	{"collective.ps_price_us", "us", false, ops("exp-grid", "sim-plan")},
	{"collective.average_gbps", "GB/s", true, ops("train-conv")},
	{"collective.topk_ms", "ms", false, ops("exp-grid")},

	// simnet
	{"simnet.simulate_us", "us", false, ops("sim-plan")},
	{"simnet.flows_per_s", "1/s", true, ops("sim-plan")},
	{"simnet.allocs_per_call", "count", false, allocs("sim-plan")},
	{"simnet.flows_per_search", "count", false, ops("sim-plan")},

	// cluster
	{"cluster.new_us_512", "us", false, ops("sim-plan")},
	{"cluster.steptime_ns", "ns", false, ops("sim-plan")},

	// plan
	{"plan.search_ms_32", "ms", false, ops("sim-plan")},
	{"plan.search_ms_128", "ms", false, ops("sim-plan")},
	{"plan.search_ms_512", "ms", false, ops("sim-plan")},
	{"plan.price_us_per_candidate", "us", false, ops("sim-plan")},
	{"plan.layercosts_us", "us", false, ops("sim-plan")},
	{"plan.candidates_per_search", "count", false, ops("sim-plan")},

	// runtime: the mesh tracks. The two elastic overheads are informational:
	// three pairs of half-size runs leave an interquartile range of tens of
	// points, and they predict no end-to-end effect until recovery is always
	// present (ROADMAP item 3), when the track's own workload carries it.
	{"runtime.ring_allreduce_us", "us", false, ops("mesh-dp")},
	{"runtime.dp_iter_ms", "ms", false, ops("mesh-dp")},
	{"runtime.gradsync_bytes_per_iter", "count", false, ops("mesh-dp")},
	{"runtime.pipe_iter_ms", "ms", false, ops("mesh-pipeline")},
	{"runtime.pipe_act_bytes_per_iter", "count", false, ops("mesh-pipeline")},
	{"runtime.pipe_bubble_share", "share", false, ops("mesh-pipeline")},
	{"runtime.dp_elastic_overhead_pct", "%", false, nil},
	{"runtime.pipe_elastic_overhead_pct", "%", false, nil},

	// transport
	{"transport.tcp_rtt_us", "us", false, ops("mesh-dp")},
	{"transport.tcp_mbps", "MB/s", true, ops("mesh-dp")},
	{"transport.tcp_mesh_setup_ms", "ms", false, ops("mesh-dp")},
	{"transport.codec_gbps", "GB/s", true, ops("mesh-dp")},
	{"transport.sent_bytes_per_sample", "count", false, ops("mesh-dp")},
	{"transport.chan_rtt_us", "us", false, ops("mesh-pipeline")},
	{"transport.tensors_codec_gbps", "GB/s", true, ops("mesh-pipeline")},

	// serve
	{"serve.predict_us_b1", "us", false, ops("serve-replay")},
	{"serve.predict_us_b8", "us", false, ops("serve-replay")},
	{"serve.batcher_ns_per_req", "ns", false, ops("serve-replay")},
	{"serve.replay_ns_per_req_nodata", "ns", false, ops("serve-replay")},
	{"serve.predict_allocs_per_call", "count", false, allocs("serve-replay")},
	{"serve.loadgen_ns_per_req", "ns", false, setup("serve-replay")},
	{"serve.mean_batch_size", "count", true, ops("serve-replay")},
	{"serve.p99_sim_s", "s", false, nil}, // simulated clock: what slo_attainment (held by --compare) rests on
	{"serve.shed_share", "share", false, nil},

	// server: every facade run crosses the scheduler (predicted < 1 % share).
	{"server.submit_to_done_us", "us", false, ops("train-small", "exp-grid")},

	// metrics: the observability layer's own cost. trace_overhead_pct is
	// the traced-vs-untraced wall time of the workload being run; it moves
	// every throughput metric if the nil-registry no-op property breaks.
	// sim-plan takes no registry, so there it is 0 by construction.
	{"metrics.counter_inc_ns", "ns", false, nil},
	{"metrics.span_ns", "ns", false, nil},
	{"metrics.trace_overhead_pct", "%", false, ops(registryWorkloads()...)},

	// exp: which scenario dominates the grid.
	{"exp.vgg11_row_ms", "ms", false, ops("exp-grid")},
	{"exp.resnet18_row_ms", "ms", false, ops("exp-grid")},
	{"exp.lenet5_row_ms", "ms", false, ops("exp-grid")},
	{"exp.fig4_ms", "ms", false, ops("exp-grid")},

	// process: of the workload being run; reported, never gated (peak RSS
	// alone varies ±7 % run to run here).
	{"process.peak_rss_mb", "MB", false, nil},
	{"process.gc_cycles", "count", false, nil},
	{"process.gc_pause_ms", "ms", false, nil},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("benchmark: undeclared layer metric " + name)
}

// scopedLayerMetrics fills the layer metrics that describe the workload
// being run rather than a fixed probe: tracing overhead from the
// alternating loop, and the process's memory and GC figures.
func scopedLayerMetrics(oc *outcome, w *workload, reps []timedRep, gcBefore runtime.MemStats) {
	m := oc.res.Metrics
	if w.noRegistry {
		m["metrics.trace_overhead_pct"] = constant("%", 0)
	} else {
		// Repetitions alternate untraced, traced: each adjacent pair saw
		// the same machine state and gives one overhead sample.
		var overhead []float64
		for i := 0; i+1 < len(reps); i += 2 {
			overhead = append(overhead, 100*(reps[i+1].seconds/reps[i].seconds-1))
		}
		m["metrics.trace_overhead_pct"] = summarize("%", overhead)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["process.peak_rss_mb"] = constant("MB", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	m["process.gc_cycles"] = constant("count", float64(gcAfter.NumGC-gcBefore.NumGC))
	m["process.gc_pause_ms"] = constant("ms", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6)
}

// ladder runs the workload-independent probes and collects their
// metrics. Each probe call is one span in the harness's recorder.
type ladder struct {
	ctx    context.Context
	o      options
	rec    *recorder
	out    map[string]summary
	stderr io.Writer
}

func runLadder(ctx context.Context, o options, rec *recorder, stderr io.Writer) map[string]summary {
	l := &ladder{ctx: ctx, o: o, rec: rec, out: map[string]summary{}, stderr: stderr}
	root := rec.begin("ladder")
	defer rec.end(root)
	for _, layer := range []struct {
		name string
		run  func(*ladder)
	}{
		{"tensor", probeTensor}, {"nn", probeNN}, {"quant", probeQuant}, {"parallel", probeParallel},
		{"dataset", probeDataset}, {"core", probeCore}, {"baselines", probeBaselines},
		{"collective", probeCollective}, {"simnet", probeSimnet}, {"cluster", probeCluster},
		{"plan", probePlan}, {"runtime", probeRuntime}, {"transport", probeTransport},
		{"serve", probeServe}, {"server", probeServer}, {"metrics", probeMetrics}, {"exp", probeExp},
		{"harvest", harvestCounts},
	} {
		id := rec.begin(layer.name)
		layer.run(l)
		rec.end(id)
	}
	return l.out
}

// fail reports a probe that could not run; its metric is then missing
// from the output, which the driver and the lint treat as an error.
func (l *ladder) fail(name string, err error) {
	fmt.Fprintf(l.stderr, "benchmark: layer probe %s: %v\n", name, err)
}

// sampleBudget is the wall time one probe's samples aim to fill.
const sampleBudget = 30 * time.Millisecond

// timeNS times fn and returns per-call nanoseconds, one value per
// sample. A call shorter than a sample slot is batched so the clock
// reads stay negligible; a long call gets at least three samples. In a
// smoke run one sample is enough to prove the probe works.
func (l *ladder) timeNS(name string, fn func()) []float64 {
	id := l.rec.begin(name)
	defer l.rec.end(id)
	fn() // warm buffers, pools and caches
	start := time.Now()
	fn()
	once := time.Since(start)
	if once <= 0 {
		once = time.Nanosecond
	}
	samples, slot := 11, sampleBudget/11
	if l.o.smoke {
		samples = 1
	}
	batch := int(slot / once)
	if batch < 1 {
		batch = 1
		if n := int(sampleBudget / once); n < samples {
			samples = max(n, min(3, samples))
		}
	}
	out := make([]float64, samples)
	for i := range out {
		start := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		out[i] = float64(time.Since(start).Nanoseconds()) / float64(batch)
	}
	return out
}

// timed records metric name as conv(ns per call) of fn.
func (l *ladder) timed(name string, fn func(), conv func(ns float64) float64) {
	l.timedErr(name, func() error { fn(); return nil }, conv)
}

// timedErr is timed for a call that can fail: any error drops the
// metric and reports the probe instead. It returns whether the metric
// was recorded.
func (l *ladder) timedErr(name string, fn func() error, conv func(ns float64) float64) bool {
	var err error
	ns := l.timeNS(name, func() {
		if e := fn(); e != nil {
			err = e
		}
	})
	if err != nil {
		l.fail(name, err)
		return false
	}
	for i, v := range ns {
		ns[i] = conv(v)
	}
	l.out[name] = summarize(layerUnit(name), ns)
	return true
}

// Unit conversions from nanoseconds per call.
func perItem(items int) func(float64) float64 {
	return func(ns float64) float64 { return ns / float64(items) }
}
func asNS(ns float64) float64 { return ns }
func asUS(ns float64) float64 { return ns / 1e3 }
func asMS(ns float64) float64 { return ns / 1e6 }

// rate converts to work/ns, i.e. giga-units per second (GFLOP/s for
// flops, GB/s for bytes).
func rate(work float64) func(float64) float64 {
	return func(ns float64) float64 { return work / ns }
}

// allocsPerCall counts heap allocations per call, fn making `calls` of
// them, at the harness's worker count (testing.AllocsPerRun would force
// one worker).
func (l *ladder) allocsPerCall(name string, calls int, fn func()) {
	id := l.rec.begin(name)
	defer l.rec.end(id)
	fn()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	l.out[name] = constant(layerUnit(name), float64(after.Mallocs-before.Mallocs)/float64(runs*calls))
}

func (l *ladder) count(name string, v float64) {
	l.out[name] = constant(layerUnit(name), v)
}

// harvestCounts runs the workloads whose reports the count rungs read,
// once each with the program's registry attached.
func harvestCounts(l *ladder) {
	run := func(name string) (*repetition, float64) {
		w := workloadByName(name)
		id := l.rec.begin("harvest:" + name)
		defer l.rec.end(id)
		start := time.Now()
		rep, err := w.run(l.ctx, l.o.seed, l.o.smoke, metrics.New())
		if err != nil {
			l.fail("harvest:"+name, err)
			return nil, 0
		}
		return rep, time.Since(start).Seconds()
	}

	for _, name := range []string{"train-conv", "train-small"} {
		if rep, _ := run(name); rep != nil {
			l.count("core.sim_epoch_s."+name, rep.harvest["sim_epoch_s"])
			l.count("core.sim_energy_kj."+name, rep.harvest["sim_energy_kj"])
			if name == "train-conv" {
				l.count("tensor.gemm_flops_per_sample", float64(rep.report.Counters["tensor.gemm.flops"])/float64(rep.ops))
			}
		}
	}
	if rep, wall := run("mesh-dp"); rep != nil {
		c := rep.report.Counters
		// Every worker counts its own iterations; the groups run in step.
		iters := float64(c["runtime.iterations"]) / float64(meshDPConfig(0, false).NumSoCs)
		l.count("runtime.dp_iter_ms", 1e3*wall/iters)
		l.count("runtime.gradsync_bytes_per_iter", float64(c["runtime.gradsync.bytes"])/float64(c["runtime.iterations"]))
		l.count("transport.sent_bytes_per_sample", float64(c["transport.sent.bytes"])/float64(rep.ops))
	}
	if rep, wall := run("mesh-pipeline"); rep != nil {
		c := rep.report.Counters
		// Only each group's first stage counts iterations.
		l.count("runtime.pipe_iter_ms", 1e3*wall/(float64(c["runtime.iterations"])/rep.harvest["groups"]))
		l.count("runtime.pipe_act_bytes_per_iter", float64(c["runtime.pipeline.act.bytes"])/float64(c["runtime.iterations"]))
	}
	if rep, _ := run("serve-replay"); rep != nil {
		l.count("serve.mean_batch_size", rep.harvest["mean_batch_size"])
		l.count("serve.p99_sim_s", rep.harvest["p99_sim_s"])
		l.count("serve.shed_share", rep.harvest["shed_share"])
	}
}
