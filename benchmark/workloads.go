package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"socflow"
	"socflow/internal/exp"
	"socflow/internal/metrics"
)

// repetition is what one run of a workload returns to the harness.
type repetition struct {
	// ops is the work completed, in the workload's own unit (trained
	// samples, replayed requests, priced candidates, strategy runs);
	// failedOps of them were shed or cancelled.
	ops, failedOps int
	// digest hashes the accuracies and simulated seconds of the result,
	// so repetitions (and commits) can be told "same arithmetic" from
	// "changed arithmetic".
	digest string
	// quality holds the workload-specific end-to-end quality metrics
	// (final_accuracy, slo_attainment).
	quality map[string]float64
	// report is the program's own registry snapshot (traced runs only);
	// harvest carries the few result fields the layer table reads that
	// the registry does not hold.
	report  *metrics.RunReport
	harvest map[string]float64
}

// workload is one named set of inputs. run executes it once: seed is
// the only source of input variation, reg is nil on untraced runs, and
// smoke shrinks it to roughly a twentieth for the tier-1 test.
type workload struct {
	name string
	// op names the unit ops_per_s and the per-op metrics count.
	op string
	// why records the reason the workload exists (BENCHMARK.json repeats
	// it).
	why string
	// noRegistry marks a workload whose entry point takes no options: it
	// has no traced variant, and its tracing overhead is 0 by construction.
	noRegistry bool
	run        func(ctx context.Context, seed uint64, smoke bool, reg *metrics.Registry) (*repetition, error)
}

// pick returns full unless the run is a smoke run.
func pick(smoke bool, full, small int) int {
	if smoke {
		return small
	}
	return full
}

// digestOf hashes float results bit-exactly.
func digestOf(parts ...[]float64) string {
	h := sha256.New()
	for _, p := range parts {
		for _, v := range p {
			fmt.Fprintf(h, "%016x,", math.Float64bits(v))
		}
		h.Write([]byte{';'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runOptions pins the run to the harness's worker count and, on traced
// runs, attaches the program's registry.
func runOptions(reg *metrics.Registry) []socflow.Option {
	opts := []socflow.Option{socflow.WithParallelism(workers)}
	if reg != nil {
		opts = append(opts, socflow.WithMetrics(reg))
	}
	return opts
}

func trainRun(ctx context.Context, cfg socflow.Config, reg *metrics.Registry) (*repetition, error) {
	rep, err := socflow.Run(ctx, cfg, runOptions(reg)...)
	if err != nil {
		return nil, err
	}
	return &repetition{
		ops:     cfg.Epochs * cfg.TrainSamples,
		digest:  digestOf(rep.EpochAccuracies, []float64{rep.SimSeconds, rep.EnergyKJ}),
		quality: map[string]float64{"final_accuracy": rep.FinalAccuracy},
		report:  rep.Metrics,
		harvest: map[string]float64{"sim_epoch_s": rep.MeanEpochSeconds, "sim_energy_kj": rep.EnergyKJ},
	}, nil
}

func meshRun(ctx context.Context, cfg socflow.DistributedConfig, reg *metrics.Registry) (*repetition, error) {
	rep, err := socflow.RunDistributed(ctx, cfg, runOptions(reg)...)
	if err != nil {
		return nil, err
	}
	return &repetition{
		ops:     cfg.Epochs * cfg.TrainSamples,
		digest:  digestOf(rep.EpochAccuracies),
		quality: map[string]float64{"final_accuracy": rep.EpochAccuracies[len(rep.EpochAccuracies)-1]},
		report:  rep.Metrics,
		harvest: map[string]float64{"groups": float64(len(rep.Topology))},
	}, nil
}

// meshPipelineConfig is shared with the layer table, which re-derives
// the plan the run adopts to compute its bubble share.
func meshPipelineConfig(seed uint64, smoke bool) socflow.DistributedConfig {
	return socflow.DistributedConfig{
		JobSpec: socflow.JobSpec{
			Model: "resnet34", Dataset: "cifar10", Seed: seed,
			Epochs: pick(smoke, 10, 2), TrainSamples: pick(smoke, 512, 128),
		},
		NumSoCs: 8, Groups: 2, InProcess: true, Parallelism: "pipeline",
	}
}

func meshDPConfig(seed uint64, smoke bool) socflow.DistributedConfig {
	return socflow.DistributedConfig{
		JobSpec: socflow.JobSpec{
			Model: "lenet5", Dataset: "fmnist", Seed: seed,
			Epochs: pick(smoke, 20, 2), TrainSamples: pick(smoke, 1280, 640),
		},
		NumSoCs: 8, Groups: 2,
	}
}

// planSizes are the fleet sizes sim-plan searches; Groups = NumSoCs/2
// leaves the planner the widest candidate set (273 over the three).
var planSizes = []int{32, 128, 512}

func planConfig(numSoCs int) socflow.Config {
	return socflow.Config{
		JobSpec: socflow.JobSpec{Model: "resnet34"},
		NumSoCs: numSoCs, Groups: numSoCs / 2, Parallelism: "auto",
	}
}

var workloads = []workload{
	{
		name: "train-conv", op: "sample",
		why: "socflow.Run vgg11/cifar10, 32 SoCs in 8 groups, Mixed auto; op = trained sample. Conv GEMM, im2col, fused Conv/BN/ReLU and the INT8 replica do the work; control plane, transport, planner almost none",
		run: func(ctx context.Context, seed uint64, smoke bool, reg *metrics.Registry) (*repetition, error) {
			return trainRun(ctx, socflow.Config{
				JobSpec: socflow.JobSpec{
					Model: "vgg11", Dataset: "cifar10", Seed: seed,
					Epochs: pick(smoke, 6, 2), TrainSamples: pick(smoke, 1536, 256),
				},
				NumSoCs: 32, Groups: 8, Mixed: "auto",
			}, reg)
		},
	},
	{
		name: "train-small", op: "sample",
		why: "socflow.Run lenet5/fmnist at batch 16; op = trained sample. Same code, but tiny GEMMs, tanh, softmax and per-call dispatch dominate, so a big-tile win that costs small shapes shows here",
		run: func(ctx context.Context, seed uint64, smoke bool, reg *metrics.Registry) (*repetition, error) {
			return trainRun(ctx, socflow.Config{
				JobSpec: socflow.JobSpec{
					Model: "lenet5", Dataset: "fmnist", GlobalBatch: 16, Seed: seed,
					Epochs: pick(smoke, 10, 2), TrainSamples: pick(smoke, 1920, 480),
				},
				NumSoCs: 32, Groups: 8,
			}, reg)
		},
	},
	{
		name: "mesh-dp", op: "sample",
		why: "socflow.RunDistributed lenet5 data-parallel, 8 workers over loopback TCP; op = trained sample. Per-iteration ring all-reduce, framing and goroutine hand-off in runtime/transport dominate the compute",
		run: func(ctx context.Context, seed uint64, smoke bool, reg *metrics.Registry) (*repetition, error) {
			return meshRun(ctx, meshDPConfig(seed, smoke), reg)
		},
	},
	{
		name: "mesh-pipeline", op: "sample",
		why: "socflow.RunDistributed resnet34, plain pipeline track, in-process mesh; op = trained sample. Planner-chosen stages, activation/gradient relay, epoch-end averaging and no per-iteration ring",
		run: func(ctx context.Context, seed uint64, smoke bool, reg *metrics.Registry) (*repetition, error) {
			return meshRun(ctx, meshPipelineConfig(seed, smoke), reg)
		},
	},
	{
		name: "sim-plan", op: "candidate", noRegistry: true,
		why: "socflow.PlanParallelism, resnet34 at 32/128/512 SoCs; op = candidate priced. Host time of the simulated-clock machinery only (plan, simnet, cluster, collective): kernel work must not move it. Seedless",
		run: func(ctx context.Context, _ uint64, smoke bool, _ *metrics.Registry) (*repetition, error) {
			sizes := planSizes
			if smoke {
				sizes = sizes[:1]
			}
			rep := &repetition{}
			var predicted []float64
			for pass := 0; pass < pick(smoke, 5, 1); pass++ {
				for _, n := range sizes {
					p, err := socflow.PlanParallelism(planConfig(n))
					if err != nil {
						return nil, err
					}
					rep.ops += p.Candidates
					predicted = append(predicted, p.EpochSeconds, p.DataEpochSeconds)
				}
			}
			rep.digest = digestOf(predicted)
			return rep, nil
		},
	},
	{
		name: "serve-replay", op: "request",
		why: "Client.Serve, vgg11 in 2 stages at 20 req/s peak; op = replayed request. Open-loop arrivals on the simulated clock replayed at host speed: eval forward at batch <= 8, batcher, EDF admission",
		run: func(ctx context.Context, seed uint64, smoke bool, reg *metrics.Registry) (*repetition, error) {
			srv := socflow.NewServer(socflow.ServerConfig{})
			defer srv.Close()
			hours := 0.5
			if smoke {
				hours = 0.025
			}
			h, err := srv.Client().Serve(ctx, socflow.ServeConfig{
				Model: "vgg11", Dataset: "cifar10", Stages: 2, MaxBatch: 8,
				PeakRPS: 20, StartHour: 14, Hours: hours, Seed: seed,
			}, runOptions(reg)...)
			if err != nil {
				return nil, err
			}
			rep, err := h.Wait(ctx)
			if err != nil {
				return nil, err
			}
			return &repetition{
				ops:       rep.Requests,
				failedOps: rep.Shed + rep.Canceled,
				digest: digestOf([]float64{
					float64(rep.Requests), float64(rep.Served), float64(rep.Shed), float64(rep.Batches),
					rep.Attainment, rep.P50Seconds, rep.P99Seconds, rep.MeanSeconds,
				}),
				quality: map[string]float64{"slo_attainment": rep.Attainment},
				report:  rep.Metrics,
				harvest: map[string]float64{
					"mean_batch_size": float64(rep.Served) / float64(rep.Batches),
					"p99_sim_s":       rep.P99Seconds,
					"shed_share":      float64(rep.Shed) / float64(rep.Requests),
				},
			}, nil
		},
	},
	{
		name: "exp-grid", op: "strategy-run",
		why: "exp.ExpFig8 on the three core scenarios plus Fig. 4(a)/(b); op = strategy run. The researcher's unit of work: the only place PS/Ring/HiPress/2D-Paral/FedAvg run and the cost model meets the paper",
		run: func(_ context.Context, seed uint64, smoke bool, reg *metrics.Registry) (*repetition, error) {
			scenarios := exp.CoreScenarios()
			if smoke {
				scenarios = scenarios[2:] // LeNet5-FMNIST alone
			}
			t, err := exp.ExpFig8(scenarios, exp.Options{
				TrainSamples: 160, Epochs: pick(smoke, 2, 1), NumSoCs: 32, Groups: 8, Seed: seed, Metrics: reg,
			})
			if err != nil {
				return nil, err
			}
			text := t.String() + exp.ExpFig4a().String() + exp.ExpFig4b().String()
			sum := sha256.Sum256([]byte(text))
			return &repetition{
				ops:    len(t.Rows) * (len(t.Header) - 1), // one run per strategy column
				digest: hex.EncodeToString(sum[:])[:16],
				report: reg.Snapshot(),
			}, nil
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// registryWorkloads names the workloads that have a traced variant.
func registryWorkloads() []string {
	var names []string
	for _, w := range workloads {
		if !w.noRegistry {
			names = append(names, w.name)
		}
	}
	return names
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
