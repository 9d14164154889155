package socflow

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/serve"
	"socflow/internal/server"
	"socflow/internal/tensor"
)

// ServeConfig describes an inference serving job: a model pipelined
// across SoCs behind an SLO-aware batcher, fed by the diurnal request
// tide. Zero values select the noted defaults; negative or
// contradictory values fail at submit wrapping ErrBadOption.
type ServeConfig struct {
	// Model is the served model, one of Models() (default "vgg11").
	Model string `json:"model,omitempty"`
	// Dataset shapes the request inputs, one of Datasets() (default
	// "cifar10").
	Dataset string `json:"dataset,omitempty"`
	// Stages is the pipeline depth: the model is partitioned across
	// this many SoCs per replica (default 2).
	Stages int `json:"stages,omitempty"`
	// MaxBatch caps the dynamic batch size (default 8).
	MaxBatch int `json:"max_batch,omitempty"`
	// MaxQueueDelay bounds how long the oldest queued request waits for
	// the batch to fill, in simulated seconds (default 0.05). Must stay
	// below SLO.
	MaxQueueDelay float64 `json:"max_queue_delay,omitempty"`
	// SLO is the per-request latency budget in simulated seconds
	// (default 0.5).
	SLO float64 `json:"slo,omitempty"`
	// PeakRPS is the request arrival rate at the diurnal peak
	// (default 20).
	PeakRPS float64 `json:"peak_rps,omitempty"`
	// StartHour is the hour of day the serving window opens (default 0).
	StartHour float64 `json:"start_hour,omitempty"`
	// Hours is the serving window's length (default 24, one full tide).
	Hours float64 `json:"hours,omitempty"`
	// NumSoCs is the cluster size serving scales across: its footprint
	// follows ceil(NumSoCs x busy fraction), rounded up to whole
	// replicas (default 32).
	NumSoCs int `json:"num_socs,omitempty"`
	// Samples is the synthetic serving dataset's size (default 256).
	Samples int `json:"samples,omitempty"`
	// Seed drives request arrivals, sample draws, and (absent a
	// checkpoint) the served weights (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Generation selects the SoC silicon: "sd865" (default) or
	// "sd8gen1".
	Generation string `json:"generation,omitempty"`
	// CheckpointDir, when set, serves the weights of the newest
	// checkpoint in the directory — the bridge from a finished training
	// job to the serving plane.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	// HourEnd, when set, runs after each simulated serving hour with
	// that hour's stats. Co-location drivers use it to pace the tide
	// against concurrent training. Local only — not transmitted to a
	// remote daemon.
	HourEnd func(ServeHourStat) `json:"-"`
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Model == "" {
		c.Model = "vgg11"
	}
	if c.Dataset == "" {
		c.Dataset = "cifar10"
	}
	if c.Stages == 0 {
		c.Stages = 2
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.MaxQueueDelay == 0 {
		c.MaxQueueDelay = 0.05
	}
	if c.SLO == 0 {
		c.SLO = 0.5
	}
	if c.PeakRPS == 0 {
		c.PeakRPS = 20
	}
	if c.Hours == 0 {
		c.Hours = 24
	}
	if c.NumSoCs == 0 {
		c.NumSoCs = 32
	}
	if c.Samples == 0 {
		c.Samples = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Generation == "" {
		c.Generation = "sd865"
	}
	return c
}

// validate rejects serving configurations the batcher, partitioner, or
// load generator would misapply, wrapping ErrBadOption so bad configs
// fail at submit exactly like training options do.
func (c ServeConfig) validate() error {
	switch {
	case c.SLO <= 0:
		return fmt.Errorf("%w: ServeConfig.SLO %v: the latency budget must be positive", ErrBadOption, c.SLO)
	case c.MaxBatch <= 0:
		return fmt.Errorf("%w: ServeConfig.MaxBatch %d: the batch bound must be positive", ErrBadOption, c.MaxBatch)
	case c.MaxQueueDelay < 0:
		return fmt.Errorf("%w: ServeConfig.MaxQueueDelay %v cannot be negative", ErrBadOption, c.MaxQueueDelay)
	case c.MaxQueueDelay >= c.SLO:
		return fmt.Errorf("%w: ServeConfig.MaxQueueDelay %v >= SLO %v: every request would queue past its budget", ErrBadOption, c.MaxQueueDelay, c.SLO)
	case c.NumSoCs <= 0:
		return fmt.Errorf("%w: ServeConfig.NumSoCs %d must be positive", ErrBadOption, c.NumSoCs)
	case c.Stages <= 0 || c.Stages > c.NumSoCs:
		return fmt.Errorf("%w: ServeConfig.Stages %d: want 1..NumSoCs (%d)", ErrBadOption, c.Stages, c.NumSoCs)
	case c.PeakRPS <= 0:
		return fmt.Errorf("%w: ServeConfig.PeakRPS %v must be positive", ErrBadOption, c.PeakRPS)
	case c.StartHour < 0 || c.StartHour >= 24:
		return fmt.Errorf("%w: ServeConfig.StartHour %v: want [0, 24)", ErrBadOption, c.StartHour)
	case c.Hours <= 0:
		return fmt.Errorf("%w: ServeConfig.Hours %v must be positive", ErrBadOption, c.Hours)
	case c.Samples <= 0:
		return fmt.Errorf("%w: ServeConfig.Samples %d must be positive", ErrBadOption, c.Samples)
	}
	return nil
}

// ServeHourStat is one simulated hour of the serving window.
type ServeHourStat struct {
	// Hour is the hour of day this window slice started.
	Hour float64 `json:"hour"`
	// Busy is the tidal trace's busy fraction at Hour.
	Busy float64 `json:"busy"`
	// Replicas is how many pipeline replicas served the slice; SoCs is
	// the serving footprint (Replicas x Stages).
	Replicas int `json:"replicas"`
	SoCs     int `json:"socs"`
	Requests int `json:"requests"`
	Shed     int `json:"shed"`
	// Attainment is the slice's SLO attainment.
	Attainment float64 `json:"attainment"`
	// P99Seconds is the slice's p99 latency (simulated).
	P99Seconds float64 `json:"p99_seconds"`
}

// ServeReport is the outcome of a serving job.
type ServeReport struct {
	Model   string  `json:"model"`
	Dataset string  `json:"dataset"`
	Stages  int     `json:"stages"`
	Hours   float64 `json:"hours"`

	// Request accounting over the whole window. Attainment counts
	// sheds as misses and excludes abandoned (canceled) requests.
	Requests      int     `json:"requests"`
	Served        int     `json:"served"`
	Shed          int     `json:"shed"`
	Canceled      int     `json:"canceled"`
	Batches       int     `json:"batches"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	Attainment    float64 `json:"attainment"`
	// Correct counts served requests the model classified right.
	Correct int `json:"correct"`

	// Latency quantiles in simulated seconds, estimated from the
	// serve.latency.seconds histogram.
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`

	// PeakReplicas is the widest the serving footprint got.
	PeakReplicas int `json:"peak_replicas"`
	// Hourly is the diurnal sweep, one entry per simulated hour.
	Hourly []ServeHourStat `json:"hourly,omitempty"`
	// Metrics snapshots the run's registry when WithMetrics (or
	// WithTrace/WithLogger) was used; nil otherwise.
	Metrics *metrics.RunReport `json:"metrics,omitempty"`
}

// ServeHandle tracks a serving job submitted with Client.Serve.
type ServeHandle struct {
	handle[ServeReport]
}

// Serve submits an inference serving job: the model is partitioned
// into a pipeline, replicated to match the request tide, and driven by
// the SLO-aware batcher for the configured window. On a shared server
// the serving job is a first-class tenant: its footprint follows the
// diurnal busy fraction via Controller.Resize, so preemptible training
// parks as the tide rises and resumes as it ebbs — the paper's
// idle-window premise, run from the serving side. Configuration errors
// surface here (wrapping ErrBadOption), not at Wait.
func (c *Client) Serve(ctx context.Context, cfg ServeConfig, opts ...Option) (*ServeHandle, error) {
	h := new(ServeHandle)
	if err := submit(ctx, c, serveKind, cfg, opts, &h.jobRef); err != nil {
		return nil, err
	}
	return h, nil
}

// admitServe applies ServeConfig's defaults and runs every serving
// check.
func admitServe(cfg ServeConfig, _ runOptions) (ServeConfig, catalog, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return cfg, catalog{}, err
	}
	cat, err := resolve(cfg.Model, cfg.Dataset, cfg.Generation)
	return cfg, cat, err
}

// buildServe compiles an admitted ServeConfig into the scheduler's
// runner. The runner walks the window hour by hour: resize to the
// tide's footprint, generate that hour's arrivals, replay them through
// the pipelined engine, accumulate. Serving jobs are not preemptible —
// the whole point of co-location is that training yields, not serving.
// The served batches' forwards run on the job's width (WithParallelism):
// one eval twin of the model per host worker past the first, built once
// and harvested with the model.
func buildServe(cfg ServeConfig, cat catalog, o runOptions) (runner, error) {
	width := o.parallelism
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	var startCP *core.Checkpoint
	if cfg.CheckpointDir != "" {
		store, err := core.NewCheckpointStore(cfg.CheckpointDir)
		if err != nil {
			return runner{}, err
		}
		startCP, err = store.Latest()
		if err != nil {
			return runner{}, fmt.Errorf("socflow: loading serving checkpoint: %w", err)
		}
	}

	trace := cluster.DefaultTidalTrace()
	startSoCs, _ := serve.Footprint(cfg.NumSoCs, cfg.Stages, trace.BusyFraction(cfg.StartHour))

	run := func(ctx context.Context, ctl *server.Controller, obs observed) (any, error) {
		reg := obs.reg
		clu := cat.cluster(cfg.NumSoCs)
		ds := cat.prof.Generate(dataset.GenOptions{Samples: cfg.Samples, Seed: cfg.Seed})
		kernels := core.BeginKernelHarvest(obs.user)
		kernels.TrackNet(clu)
		model := kernels.Track(cat.spec.BuildMicro(tensor.NewRNG(cfg.Seed), ds.Channels(), ds.ImageSize(), ds.Classes))
		if startCP != nil {
			startCP.Restore(model.Weights(), model.StateTensors())
		}
		scale := float64(cat.prof.PaperSize*cat.prof.PaperSize) / float64(ds.ImageSize()*ds.ImageSize())
		engine, err := serve.NewEngine(serve.EngineConfig{
			Spec: cat.spec, Model: model, Cluster: clu, Stages: cfg.Stages,
			InC: ds.Channels(), ImgSize: ds.ImageSize(), ActivationScale: scale,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadOption, err)
		}
		for _, twin := range engine.Twins(width - 1) {
			kernels.Track(twin)
		}

		rep := &ServeReport{
			Model: cfg.Model, Dataset: cfg.Dataset, Stages: cfg.Stages, Hours: cfg.Hours,
		}
		steps := int(math.Ceil(cfg.Hours))
		for i := 0; i < steps; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			span := float64(i + 1)
			if span > cfg.Hours {
				span = cfg.Hours
			}
			span -= float64(i) // this slice's length in hours
			hour := math.Mod(cfg.StartHour+float64(i), 24)
			busy := trace.BusyFraction(hour)
			socs, replicas := serve.Footprint(cfg.NumSoCs, cfg.Stages, busy)
			ctl.Resize(socs)
			if replicas > rep.PeakReplicas {
				rep.PeakReplicas = replicas
			}

			// One seeded stream per hour slice keeps the window
			// reproducible regardless of where it starts.
			lg := serve.LoadGen{
				Trace: trace, PeakRPS: cfg.PeakRPS, SLO: cfg.SLO,
				Samples: ds.Len(), Seed: cfg.Seed + uint64(i)*0x9e3779b97f4a7c15,
			}
			res, err := serve.Replay(engine, lg.Arrivals(hour, span), serve.ReplayConfig{
				Batcher:  serve.BatcherConfig{MaxBatch: cfg.MaxBatch, MaxDelay: cfg.MaxQueueDelay},
				Replicas: replicas,
				Metrics:  reg,
				Data:     ds,
				Width:    width,
			})
			if err != nil {
				return nil, err
			}
			stat := ServeHourStat{
				Hour: hour, Busy: busy, Replicas: replicas, SoCs: socs,
				Requests: res.Requests, Shed: res.Shed,
				Attainment: res.Attainment, P99Seconds: res.P99Seconds,
			}
			rep.Hourly = append(rep.Hourly, stat)
			rep.Requests += res.Requests
			rep.Served += res.Served
			rep.Shed += res.Shed
			rep.Canceled += res.Canceled
			rep.Batches += res.Batches
			rep.Correct += res.Correct
			rep.Attainment += float64(res.SLOMet) // running SLOMet total; normalized below
			if res.MaxQueueDepth > rep.MaxQueueDepth {
				rep.MaxQueueDepth = res.MaxQueueDepth
			}
			ctl.ObserveEpoch(i) // serving progress: one "epoch" per hour
			if cfg.HourEnd != nil {
				cfg.HourEnd(stat)
			}
		}
		kernels.Finish()
		if n := rep.Requests - rep.Canceled; n > 0 {
			rep.Attainment /= float64(n)
		} else {
			rep.Attainment = 0
		}
		// Whole-window latency quantiles from the shared histogram.
		if snap := reg.Snapshot(); snap != nil {
			if lat, ok := snap.Histograms["serve.latency.seconds"]; ok && lat.Count > 0 {
				rep.P50Seconds = lat.Quantile(0.50)
				rep.P99Seconds = lat.Quantile(0.99)
				rep.MeanSeconds = lat.Sum / float64(lat.Count)
			}
		}
		rep.Metrics = obs.user.Snapshot()
		return rep, nil
	}
	return runner{socs: startSoCs, epochs: int(math.Ceil(cfg.Hours)), run: run}, nil
}
