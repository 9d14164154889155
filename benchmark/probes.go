package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"socflow"
	"socflow/internal/baselines"
	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/exp"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/parallel"
	"socflow/internal/plan"
	"socflow/internal/quant"
	"socflow/internal/runtime"
	"socflow/internal/serve"
	"socflow/internal/server"
	"socflow/internal/simnet"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// The probes call each package's exported functions at the shapes the
// named workload uses. Shapes shared by several probes:
//
//   - the micro datasets are 8x8 images, cifar10 with 3 channels and
//     fmnist with 1, and the functional mini-batch is 16;
//   - the largest vgg11-micro convolution is its third: 16 -> 16
//     channels on a 4x4 map, which at batch 16 lowers to
//     cols[256,144] · W[16,144]ᵀ.
const (
	probeBatch = 16
	convM      = probeBatch * 4 * 4 // im2col rows
	convK      = 16 * 3 * 3         // InC·KH·KW
	convN      = 16                 // OutC
)

var convParams = tensor.ConvParams{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}

func randn(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	return tensor.RandNormal(rng, 0, 1, shape...)
}

// convForward returns Conv2D.Forward's GEMM at the conv shape.
func convForward(rng *tensor.RNG) func() {
	cols, w, bias, y := randn(rng, convM, convK), randn(rng, convN, convK), randn(rng, convN), tensor.New(convM, convN)
	return func() { tensor.MatMulT2BiasInto(y, cols, w, bias) }
}

func probeTensor(l *ladder) {
	rng := tensor.NewRNG(l.o.seed)
	const gemmFLOPs = 2 * convM * convK * convN
	fwd := convForward(rng)
	l.timed("tensor.gemm_conv_gflops", fwd, rate(gemmFLOPs))

	// Conv2D.Backward's pair.
	cols, w, g2 := randn(rng, convM, convK), randn(rng, convN, convK), randn(rng, convM, convN)
	dw, dcols := tensor.New(convN, convK), tensor.New(convM, convK)
	bwd := func() {
		tensor.MatMulT1Into(dw, g2, cols)
		tensor.MatMulInto(dcols, g2, w)
	}
	l.timed("tensor.gemm_bwd_gflops", bwd, rate(2*gemmFLOPs))

	// LeNet-5's first dense layer at batch 16: all dispatch, no tiles.
	a, b, c := randn(rng, 16, 400), randn(rng, 400, 120), tensor.New(16, 120)
	l.timed("tensor.gemm_small_gflops", func() { tensor.MatMulInto(c, a, b) }, rate(2*16*400*120))

	x, dx := randn(rng, probeBatch, 16, 4, 4), tensor.New(probeBatch, 16, 4, 4)
	moved := float64(4 * (cols.Size() + x.Size())) // bytes read + written, computed from the shapes
	im2col := func() { tensor.Im2ColInto(cols, x, convParams) }
	col2im := func() { tensor.Col2ImInto(dx, dcols, convParams) }
	l.timed("tensor.im2col_gbps", im2col, rate(moved))
	l.timed("tensor.col2im_gbps", col2im, rate(moved))

	logits, probs := randn(rng, probeBatch, 10), tensor.New(probeBatch, 10)
	l.timed("tensor.softmax_ns_per_row", func() { tensor.SoftmaxInto(probs, logits) }, perItem(probeBatch))

	l.allocsPerCall("tensor.kernel_allocs_per_call", 5, func() { fwd(); bwd(); im2col(); col2im() }) // five kernel calls
}

// trainStep is one full SGD step on a micro model, split so the probes
// can time its thirds.
type trainStep struct {
	model  *nn.Sequential
	opt    *nn.SGD
	x      *tensor.Tensor
	labels []int
	grad   *tensor.Tensor
}

func newTrainStep(seed uint64, model, data string, batch int) *trainStep {
	prof := dataset.MustProfile(data)
	rng := tensor.NewRNG(seed)
	s := &trainStep{
		model:  nn.MustSpec(model).BuildMicro(rng, prof.Channels, 8, prof.Classes),
		opt:    nn.NewSGD(0.02, 0.9, 0),
		x:      randn(rng, batch, prof.Channels, 8, 8),
		labels: make([]int, batch),
		grad:   tensor.New(batch, prof.Classes),
	}
	for i := range s.labels {
		s.labels[i] = i % prof.Classes
	}
	return s
}

func (s *trainStep) forward() *tensor.Tensor { return s.model.Forward(s.x, true) }
func (s *trainStep) backward(logits *tensor.Tensor) {
	s.model.ZeroGrad()
	nn.SoftmaxCrossEntropyInto(s.grad, logits, s.labels)
	s.model.Backward(s.grad)
}
func (s *trainStep) update() { s.opt.Step(s.model.Params()) }
func (s *trainStep) step()   { s.backward(s.forward()); s.update() }

func probeNN(l *ladder) {
	for _, m := range []struct{ prefix, model, data string }{
		{"nn.vgg11", "vgg11", "cifar10"},
		{"nn.lenet5", "lenet5", "fmnist"},
	} {
		s := newTrainStep(l.o.seed, m.model, m.data, probeBatch)
		logits := s.forward()
		l.timed(m.prefix+"_fwd_ms", func() { s.forward() }, asMS)
		// Layers cache their forward activations, so the backward pass can
		// be repeated on them.
		l.timed(m.prefix+"_bwd_ms", func() { s.backward(logits) }, asMS)
		l.timed(m.prefix+"_opt_ms", s.update, asMS)
		if m.model == "lenet5" {
			l.allocsPerCall("nn.lenet5_step_allocs", 1, s.step)
		}
	}
	r34 := newTrainStep(l.o.seed, "resnet34", "cifar10", probeBatch)
	l.timed("nn.resnet34_step_ms", r34.step, asMS)

	rng := tensor.NewRNG(l.o.seed)
	act := randn(rng, probeBatch, 6, 8, 8) // LeNet's first activation map
	tanh := nn.NewTanh()
	l.timed("nn.tanh_ns_per_elem", func() { tanh.Forward(act, true) }, perItem(act.Size()))

	logits, grad := randn(rng, probeBatch, 10), tensor.New(probeBatch, 10)
	labels := make([]int, probeBatch)
	l.timed("nn.xent_us", func() { nn.SoftmaxCrossEntropyInto(grad, logits, labels) }, asUS)

	eval := newTrainStep(l.o.seed, "vgg11", "cifar10", 8) // serve-replay's MaxBatch
	l.timed("nn.vgg11_eval_fwd_ms_b8", func() { eval.model.Forward(eval.x, false) }, asMS)
}

func probeQuant(l *ladder) {
	rng := tensor.NewRNG(l.o.seed)
	act, dst := randn(rng, convM, convK), tensor.New(convM, convK)
	l.timed("quant.fakequant_ns_per_elem", func() { quant.FakeQuantizeInto(dst, act) }, perItem(act.Size()))
	l.timed("quant.stochastic_ns_per_elem", func() {
		dst.CopyFrom(act)
		quant.QuantizeStochasticPerChannelInPlace(dst, rng)
	}, perItem(act.Size()))

	w, g := randn(rng, convN, convK), tensor.Scaled(0.01, randn(rng, convN, convK))
	sgd := &quant.Int8SGD{LR: 0.02, GradClip: 1, RNG: rng.Split(77)}
	l.timed("quant.int8_sgd_ns_per_param", func() { sgd.Step(w, g) }, perItem(w.Size()))

	fp, i8 := randn(rng, probeBatch, 10), randn(rng, probeBatch, 10)
	l.timed("quant.logit_confidence_us", func() { quant.LogitConfidence(fp, i8) }, asUS)

	a, b := make([]int8, convM*convK), make([]int8, convK*convN)
	sa := quant.QuantizeSlice(a, act.Data)
	sb := quant.QuantizeSlice(b, randn(rng, convK, convN).Data)
	out := make([]float32, convM*convN)
	l.timed("quant.int8_gemm_exact_gops", func() {
		quant.Int8MatMul(out, a, sa, b, sb, nil, convM, convK, convN, quant.Exact{})
	}, rate(2*convM*convK*convN))
}

type emptyKernel struct{}

func (emptyKernel) RunRange(lo, hi int) {}

func probeParallel(l *ladder) {
	l.timed("parallel.for_dispatch_ns", func() { parallel.For(workers, func(lo, hi int) {}) }, asNS)
	l.timed("parallel.forkernel_dispatch_ns", func() { parallel.ForKernel(workers, emptyKernel{}) }, asNS)
	// A capturing closure, as the nn and tensor call sites pass.
	done := make([]int, workers)
	l.allocsPerCall("parallel.for_allocs_per_call", 1, func() {
		parallel.For(workers, func(lo, hi int) { done[lo] = hi })
	})

	gemm := convForward(tensor.NewRNG(l.o.seed))
	prev := parallel.Set(1)
	one := median(l.timeNS("parallel.gemm_scaling:1", gemm))
	parallel.Set(prev)
	all := l.timeNS("parallel.gemm_scaling:P", gemm)
	for i, ns := range all {
		all[i] = one / ns
	}
	l.out["parallel.gemm_scaling"] = summarize(layerUnit("parallel.gemm_scaling"), all)
}

func probeDataset(l *ladder) {
	prof := dataset.MustProfile("cifar10")
	gen := func() *dataset.Dataset {
		return prof.Generate(dataset.GenOptions{Samples: 1536 + 128, Seed: l.o.seed}) // train-conv's pool
	}
	l.timed("dataset.generate_ms", func() { gen() }, asMS)
	ds := gen()
	idx := tensor.NewRNG(l.o.seed).Perm(ds.Len())[:probeBatch]
	var x *tensor.Tensor
	var labels []int
	l.timed("dataset.batchinto_ns_per_sample", func() { x, labels = ds.BatchInto(x, labels, idx) }, perItem(probeBatch))
}

func probeCore(l *ladder) {
	rng := tensor.NewRNG(l.o.seed)
	spec := nn.MustSpec("vgg11")
	build := func() *nn.Sequential { return spec.BuildMicro(tensor.NewRNG(l.o.seed), 3, 8, 10) }
	mp := core.NewMixedPrecision(build(), build, 0.02, 0.9, 0.5, rng)
	x, labels := randn(rng, probeBatch, 3, 8, 8), make([]int, probeBatch)
	l.timed("core.mixed_step_ms", func() { mp.Step(x, labels) }, asMS)
	l.timed("core.merge_ms", func() { mp.Merge(); mp.AdoptMerged() }, asMS)
	l.timed("core.map_us", func() { core.IntegrityGreedyMap(32, 8, 5) }, asUS)

	r34 := nn.MustSpec("resnet34").BuildMicro(rng, 3, 8, 10)
	cp := core.TakeCheckpoint(1, r34.Weights(), r34.StateTensors())
	var buf bytes.Buffer
	size, err := cp.WriteTo(&buf)
	if err != nil {
		l.fail("core.checkpoint", err)
		return
	}
	raw := buf.Bytes()
	mbps := func(ns float64) float64 { return float64(size) / 1e6 / (ns / 1e9) }
	l.timed("core.checkpoint_write_mbps", func() {
		buf.Reset()
		if _, err := cp.WriteTo(&buf); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
	}, mbps)
	l.timed("core.checkpoint_read_mbps", func() {
		if _, err := core.ReadCheckpoint(bytes.NewReader(raw)); err != nil {
			panic(err) // raw was just written by WriteTo
		}
	}, mbps)
}

// gridJob rebuilds the job exp.ExpFig8 runs for its VGG11 row at the
// exp-grid workload's options (internal/exp keeps jobFor unexported):
// 240 train / 40 validation samples, functional batch 4, 2 epochs.
func gridJob(seed uint64, smoke bool) *core.Job {
	prof := dataset.MustProfile("cifar10")
	pool := prof.Generate(dataset.GenOptions{Samples: 280, Seed: seed})
	train, val := pool.Split(240.0 / 280.0)
	return &core.Job{
		Spec: nn.MustSpec("vgg11"), Train: train, Val: val, PaperSamples: prof.PaperTrainN,
		GlobalBatch: 4, PaperBatch: 64, LR: 0.02, Momentum: 0.9, Epochs: pick(smoke, 2, 1), Seed: seed,
	}
}

func probeBaselines(l *ladder) {
	clu := cluster.New(cluster.Config{NumSoCs: 32})
	for _, b := range []struct {
		name string
		s    core.Strategy
	}{
		{"baselines.ring_run_ms", baselines.NewRing()},
		{"baselines.hipress_run_ms", baselines.NewHiPress()},
		{"baselines.fedavg_run_ms", baselines.NewFedAvg()},
	} {
		l.timedErr(b.name, func() error {
			_, err := b.s.Run(l.ctx, gridJob(l.o.seed, l.o.smoke), clu)
			return err
		}, asMS)
	}
}

func probeCollective(l *ladder) {
	clu := cluster.New(cluster.Config{NumSoCs: 32})
	members := core.AllSoCs(clu)
	grad := float64(nn.MustSpec("vgg11").GradBytes())
	l.timed("collective.ring_price_us", func() { collective.RingAllReduceTime(clu, members, grad) }, asUS)
	l.timed("collective.ps_price_us", func() { collective.PSTime(clu, members, 0, grad) }, asUS)

	// Eight groups' weight sets, as SoCFlow's epoch-end aggregation sees.
	rng := tensor.NewRNG(l.o.seed)
	sets := make([][]*tensor.Tensor, 8)
	var setBytes float64
	for i := range sets {
		sets[i] = nn.MustSpec("vgg11").BuildMicro(rng, 3, 8, 10).Weights()
	}
	for _, t := range sets[0] {
		setBytes += float64(4 * t.Size())
	}
	l.timed("collective.average_gbps", func() { collective.AverageInPlace(sets) }, rate(2*setBytes*float64(len(sets)))) // each set read once, written once

	topk := collective.NewTopKCompressor(0.01)
	g := randn(rng, 1<<16)
	l.timed("collective.topk_ms", func() { topk.Compress(0, g) }, asMS)
}

func probeSimnet(l *ladder) {
	clu := cluster.New(cluster.Config{NumSoCs: 32})
	flows := collective.RingFlows(clu, core.AllSoCs(clu), float64(nn.MustSpec("vgg11").GradBytes()), 0)
	sim := simnet.NewSimulator()
	run := func() { sim.Simulate(flows) }
	ns := l.timeNS("simnet.simulate_us", run)
	us, fps := make([]float64, len(ns)), make([]float64, len(ns))
	for i, v := range ns {
		us[i], fps[i] = v/1e3, float64(len(flows))/(v/1e9)
	}
	l.out["simnet.simulate_us"] = summarize(layerUnit("simnet.simulate_us"), us)
	l.out["simnet.flows_per_s"] = summarize(layerUnit("simnet.flows_per_s"), fps)
	l.allocsPerCall("simnet.allocs_per_call", 1, run)
}

func probeCluster(l *ladder) {
	l.timed("cluster.new_us_512", func() { cluster.New(cluster.Config{NumSoCs: 512}) }, asUS)
	clu, spec := cluster.New(cluster.Config{NumSoCs: 32}), nn.MustSpec("resnet34")
	l.timed("cluster.steptime_ns", func() { clu.StepTime(0, spec, 64, cluster.CPU) }, asNS)
}

// searchOptions are the planner options socflow.PlanParallelism derives
// from planConfig(numSoCs): paper batch 64, cifar10's paper-scale epoch.
func searchOptions(numSoCs int) plan.Options {
	return plan.Options{
		Spec:        nn.MustSpec("resnet34"),
		Cluster:     cluster.New(cluster.Config{NumSoCs: numSoCs}),
		GlobalBatch: 64,
		Samples:     dataset.MustProfile("cifar10").PaperTrainN,
		MaxGroups:   numSoCs / 2,
	}
}

func probePlan(l *ladder) {
	for _, n := range planSizes {
		opts := searchOptions(n)
		if !l.timedErr(fmt.Sprintf("plan.search_ms_%d", n), func() error {
			_, err := plan.Search(opts)
			return err
		}, asMS) {
			return
		}
	}

	// One more 128-SoC search for its exact counts and its winner.
	opts := searchOptions(128)
	before := simnet.SnapshotStats()
	winner, err := plan.Search(opts)
	if err != nil {
		l.fail("plan.candidates_per_search", err)
		return
	}
	l.count("plan.candidates_per_search", float64(winner.Candidates))
	l.count("simnet.flows_per_search", float64(simnet.SnapshotStats().Delta(before).Flows))

	pricer := plan.PricerFor(opts)
	l.timed("plan.price_us_per_candidate", func() { pricer.EpochSeconds(winner, opts.Samples) }, asUS)
	model := opts.Spec.BuildMicro(tensor.NewRNG(1), 3, 8, 10)
	l.timed("plan.layercosts_us", func() { serve.LayerCosts(model, 3, 8) }, asUS)
}

// pingPong times one small-message round trip between nodes 0 and 1 of
// a mesh: an echo goroutine answers until the mesh closes.
func (l *ladder) pingPong(name string, mesh transport.Mesh) {
	a, b := mesh.Node(0), mesh.Node(1)
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			msg, err := b.Recv(0)
			if err != nil || b.Send(0, msg) != nil {
				return // mesh closed
			}
		}
	}()
	msg := make([]byte, 64)
	l.timedErr(name, func() error {
		if err := a.Send(1, msg); err != nil {
			return err
		}
		_, err := a.Recv(1)
		return err
	}, asUS)
	mesh.Close()
	echo.Wait()
}

func probeTransport(l *ladder) {
	l.pingPong("transport.chan_rtt_us", transport.NewChanMesh(2))
	tcp, err := transport.NewTCPMesh(2)
	if err != nil {
		l.fail("transport.tcp", err)
		return
	}
	l.pingPong("transport.tcp_rtt_us", tcp)

	// One-way bulk: 1 MiB frames, acknowledged once per frame so the
	// timer sees delivery, not just the send buffer.
	tcp, err = transport.NewTCPMesh(2)
	if err != nil {
		l.fail("transport.tcp_mbps", err)
		return
	}
	frame, ack := make([]byte, 1<<20), []byte{1}
	var sink sync.WaitGroup
	sink.Add(1)
	go func() {
		defer sink.Done()
		for {
			if _, err := tcp.Node(1).Recv(0); err != nil || tcp.Node(1).Send(0, ack) != nil {
				return // mesh closed
			}
		}
	}()
	l.timedErr("transport.tcp_mbps", func() error {
		if err := tcp.Node(0).Send(1, frame); err != nil {
			return err
		}
		_, err := tcp.Node(0).Recv(1)
		return err
	}, func(ns float64) float64 { return float64(len(frame)) / 1e6 / (ns / 1e9) })
	tcp.Close()
	sink.Wait()

	l.timedErr("transport.tcp_mesh_setup_ms", func() error {
		m, err := transport.NewTCPMesh(meshDPConfig(0, false).NumSoCs)
		if err != nil {
			return err
		}
		return m.Close()
	}, asMS)

	// What the meshes carry: mesh-dp ships flat gradient vectors,
	// mesh-pipeline one activation tensor per stage boundary.
	rng := tensor.NewRNG(l.o.seed)
	var grad []float32
	for _, g := range nn.MustSpec("lenet5").BuildMicro(rng, 1, 8, 10).Weights() {
		grad = append(grad, g.Data...)
	}
	l.timed("transport.codec_gbps", func() {
		if _, err := transport.DecodeVector(transport.EncodeVector(grad)); err != nil {
			panic(err) // decoding what was just encoded
		}
	}, rate(2*4*float64(len(grad))))
	act := []*tensor.Tensor{randn(rng, 8, 16, 4, 4)}
	l.timed("transport.tensors_codec_gbps", func() {
		if _, err := transport.DecodeTensors(transport.EncodeTensors(act)); err != nil {
			panic(err) // decoding what was just encoded
		}
	}, rate(2*4*float64(act[0].Size())))
}

func probeRuntime(l *ladder) {
	// Ring all-reduce of a LeNet-5 gradient among four in-process nodes:
	// every member runs `rounds` collectives, the probe times the slowest.
	var lenetParams int
	for _, w := range nn.MustSpec("lenet5").BuildMicro(tensor.NewRNG(1), 1, 8, 10).Weights() {
		lenetParams += w.Size()
	}
	members := []int{0, 1, 2, 3}
	mesh := transport.NewChanMesh(len(members))
	data := make([][]float32, len(members))
	for i := range data {
		data[i] = make([]float32, lenetParams)
	}
	const rounds = 20
	l.timedErr("runtime.ring_allreduce_us", func() error {
		var wg sync.WaitGroup
		errs := make([]error, len(members))
		for i := range members {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for r := 0; r < rounds && errs[i] == nil; r++ {
					errs[i] = runtime.RingAllReduceAverage(mesh.Node(i), members, data[i])
				}
			}(i)
		}
		wg.Wait()
		return errors.Join(errs...)
	}, func(ns float64) float64 { return ns / rounds / 1e3 })
	mesh.Close()

	// The adopted pipeline plan's idle share: (d-1)/(M+d-1).
	cfg := meshPipelineConfig(l.o.seed, l.o.smoke)
	p, err := plan.Search(plan.Options{
		Spec: nn.MustSpec(cfg.Model), NumSoCs: cfg.NumSoCs, GlobalBatch: 16, // RunDistributed's default batch
		Samples: cfg.TrainSamples, MaxGroups: cfg.Groups, Only: plan.ModePipeline,
	})
	if err != nil {
		l.fail("runtime.pipe_bubble_share", err)
	} else {
		d, m := float64(p.Depth()), float64(p.MicroBatches)
		l.count("runtime.pipe_bubble_share", (d-1)/(m+d-1))
	}

	// The same job fault-free on the elastic track versus the plain one,
	// at half the workload's epochs, in adjacent pairs so both see the
	// same machine state.
	for _, tr := range []struct {
		name string
		cfg  socflow.DistributedConfig
	}{
		{"runtime.dp_elastic_overhead_pct", meshDPConfig(l.o.seed, l.o.smoke)},
		{"runtime.pipe_elastic_overhead_pct", cfg},
	} {
		l.elasticOverhead(tr.name, tr.cfg)
	}
}

func (l *ladder) elasticOverhead(name string, cfg socflow.DistributedConfig) {
	id := l.rec.begin(name)
	defer l.rec.end(id)
	cfg.Epochs = max(cfg.Epochs/2, 1)
	run := func(opts ...socflow.Option) (float64, error) {
		start := time.Now()
		_, err := socflow.RunDistributed(l.ctx, cfg, append(opts, socflow.WithParallelism(workers))...)
		return time.Since(start).Seconds(), err
	}
	var overhead []float64
	for i := 0; i < pick(l.o.smoke, 3, 1); i++ {
		plain, err := run()
		if err != nil {
			l.fail(name, err)
			return
		}
		elastic, err := run(socflow.WithRecovery(3, 5*time.Millisecond))
		if err != nil {
			l.fail(name, err)
			return
		}
		overhead = append(overhead, 100*(elastic/plain-1))
	}
	l.out[name] = summarize(layerUnit(name), overhead)
}

func probeServe(l *ladder) {
	prof := dataset.MustProfile("cifar10")
	ds := prof.Generate(dataset.GenOptions{Samples: 256, Seed: l.o.seed})
	spec := nn.MustSpec("vgg11")
	engine, err := serve.NewEngine(serve.EngineConfig{
		Spec: spec, Model: spec.BuildMicro(tensor.NewRNG(l.o.seed), 3, 8, 10),
		Cluster: cluster.New(cluster.Config{NumSoCs: 32}), Stages: 2, InC: 3, ImgSize: 8,
	})
	if err != nil {
		l.fail("serve", err)
		return
	}
	rng := tensor.NewRNG(l.o.seed)
	x1, x8 := randn(rng, 1, 3, 8, 8), randn(rng, 8, 3, 8, 8)
	l.timed("serve.predict_us_b1", func() { engine.Predict(x1) }, asUS)
	l.timed("serve.predict_us_b8", func() { engine.Predict(x8) }, asUS)
	l.allocsPerCall("serve.predict_allocs_per_call", 1, func() { engine.Predict(x8) })

	lg := serve.LoadGen{Trace: cluster.DefaultTidalTrace(), PeakRPS: 20, SLO: 0.5, Samples: ds.Len(), Seed: l.o.seed}
	hours := 0.05
	if l.o.smoke {
		hours = 0.005
	}
	reqs := lg.Arrivals(14, hours)
	l.timed("serve.loadgen_ns_per_req", func() { lg.Arrivals(14, hours) }, perItem(len(reqs)))

	bcfg := serve.BatcherConfig{MaxBatch: 8, MaxDelay: 0.05}
	batcher, err := serve.NewBatcher(bcfg)
	if err != nil {
		l.fail("serve.batcher_ns_per_req", err)
		return
	}
	var batch []serve.Request
	l.timed("serve.batcher_ns_per_req", func() {
		for _, r := range reqs[:8] {
			batcher.Admit(r, r.Arrival, 0)
		}
		batch = batcher.FlushInto(batch, reqs[7].Arrival)
	}, perItem(8))

	l.timedErr("serve.replay_ns_per_req_nodata", func() error {
		_, err := serve.Replay(engine, reqs, serve.ReplayConfig{Batcher: bcfg, Replicas: 1})
		return err
	}, perItem(len(reqs)))
}

func probeServer(l *ladder) {
	srv := server.New(server.Config{TotalSoCs: 32})
	defer srv.Close()
	noop := func(context.Context, *server.Controller) (any, error) { return nil, nil }
	l.timedErr("server.submit_to_done_us", func() error {
		id, err := srv.Submit(server.JobSpec{SoCs: 1, Epochs: 1, Run: noop})
		if err != nil {
			return err
		}
		_, err = srv.Wait(l.ctx, id)
		return err
	}, asUS)
}

func probeMetrics(l *ladder) {
	c := metrics.New().Counter("probe")
	l.timed("metrics.counter_inc_ns", c.Inc, asNS)
	// A registry stops storing spans at its cap (and counts the drops), a
	// cheaper path; renew it before the cap so every span is stored.
	reg, stored := metrics.New(), 0
	l.timed("metrics.span_ns", func() {
		if stored++; stored == 1<<15 {
			reg, stored = metrics.New(), 0
		}
		reg.BeginSpan("probe", "benchmark", 0).End()
	}, asNS)
}

func probeExp(l *ladder) {
	opts := exp.Options{TrainSamples: 160, Epochs: pick(l.o.smoke, 2, 1), NumSoCs: 32, Groups: 8, Seed: l.o.seed}
	for i, name := range []string{"exp.vgg11_row_ms", "exp.resnet18_row_ms", "exp.lenet5_row_ms"} {
		sc := exp.CoreScenarios()[i : i+1]
		id := l.rec.begin(name)
		start := time.Now()
		_, err := exp.ExpFig8(sc, opts)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		l.rec.end(id)
		if err != nil {
			l.fail(name, err)
			continue
		}
		l.out[name] = summarize(layerUnit(name), []float64{ms}) // one run: a row is the better part of a second
	}
	l.timed("exp.fig4_ms", func() { exp.ExpFig4a(); exp.ExpFig4b() }, asMS)
}
