package socflow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"socflow/internal/cluster"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/server"
)

// jobKind is one row of the front door's kind table: a job family's
// wire name, its admission — defaults plus every check of the kind, run
// by the in-process client and the daemon alike — and the builder that
// turns an admitted config into the scheduler's runner.
type jobKind[C any] struct {
	name  string
	admit func(cfg C, o runOptions) (C, catalog, error)
	build func(cfg C, cat catalog, o runOptions) (runner, error)
}

var (
	trainKind = &jobKind[Config]{name: "train", admit: admitTrain, build: buildTrain}
	distKind  = &jobKind[DistributedConfig]{name: "distributed", admit: admitDistributed, build: buildDistributed}
	serveKind = &jobKind[ServeConfig]{name: "serve", admit: admitServe, build: buildServe}
)

// wireKind is a kind as the daemon sees it: a raw config in, a job out.
type wireKind interface {
	fromWire(raw json.RawMessage, o runOptions) (server.JobSpec, error)
}

// kinds is the table Server.Handler decodes submissions into; an empty
// kind is a training job.
var kinds = map[string]wireKind{"": trainKind, "train": trainKind, "distributed": distKind, "serve": serveKind}

// runner is what a kind's build hands the shared preamble.
type runner struct {
	socs, epochs int
	preemptible  bool
	run          func(ctx context.Context, ctl *server.Controller, obs observed) (any, error)
	cleanup      func() // after the job ends; may be nil
}

// observed is a job's observability. user is the registry the options
// asked for (nil when none): kernel harvests and Report.Metrics follow
// it. reg is the one the job always publishes into — user, or a private
// one — so Events and /metrics work either way.
type observed struct{ user, reg *metrics.Registry }

// submit is the one front door behind Submit, SubmitDistributed and
// Serve: the config is admitted here, so its errors surface before any
// job exists, and then either posted to the daemon (which admits it
// again with the same code) or built and queued in process.
func submit[C any](ctx context.Context, c *Client, k *jobKind[C], cfg C, opts []Option, h *jobRef) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	o, err := gatherOptions(opts)
	if err != nil {
		return err
	}
	cfg, cat, err := k.admit(cfg, o)
	if err != nil {
		return err
	}
	h.c = c
	if c.srv == nil {
		raw, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		h.id, err = c.postJob(ctx, server.SubmitRequest{
			Tenant: o.tenant, Priority: o.priority, Kind: k.name, Config: raw,
		})
		return err
	}
	spec, err := k.spec(ctx, cfg, cat, o, h)
	if err != nil {
		return err
	}
	h.id, err = c.srv.Submit(spec)
	return err
}

// fromWire decodes, admits and builds a daemon submission.
func (k *jobKind[C]) fromWire(raw json.RawMessage, o runOptions) (server.JobSpec, error) {
	cfg, cat, err := k.admitWire(raw, o)
	if err != nil {
		return server.JobSpec{}, err
	}
	return k.spec(context.Background(), cfg, cat, o, nil)
}

// admitWire decodes and admits a daemon submission's config. Every
// rejection wraps a sentinel: a body that does not decode into the
// kind's config is ErrBadOption.
func (k *jobKind[C]) admitWire(raw json.RawMessage, o runOptions) (C, catalog, error) {
	var cfg C
	dec := json.NewDecoder(bytes.NewReader(raw))
	// A misspelled or retired field must fail the submission, not run a
	// different job than the one asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, catalog{}, fmt.Errorf("%w: decoding %s config: %w", ErrBadOption, k.name, err)
	}
	return k.admit(cfg, o)
}

// spec builds an admitted config and wraps its runner in the preamble
// every job shares. The job's registries and its trace and log
// subscribers are set up once per job, not per segment, and the handle
// (nil for a daemon-built job) streams from that one registry. Each
// segment runs bound to both the submit ctx and the scheduler's.
func (k *jobKind[C]) spec(submitCtx context.Context, cfg C, cat catalog, o runOptions, h *jobRef) (server.JobSpec, error) {
	r, err := k.build(cfg, cat, o)
	if err != nil {
		return server.JobSpec{}, err
	}
	obs := observed{user: o.registry()}
	o.subscribe(obs.user)
	obs.reg = obs.user
	if obs.reg == nil {
		obs.reg = metrics.New()
	}
	if h != nil {
		h.reg = obs.reg
	}
	return server.JobSpec{
		Tenant:      o.tenant,
		Priority:    o.priority,
		SoCs:        r.socs,
		Epochs:      r.epochs,
		Preemptible: r.preemptible,
		Metrics:     obs.reg,
		Run: func(runCtx context.Context, ctl *server.Controller) (any, error) {
			ctx, cancel := context.WithCancel(submitCtx)
			defer cancel()
			defer context.AfterFunc(runCtx, cancel)()
			return r.run(ctx, ctl, obs)
		},
		OnTerminal: func() {
			h.finishEvents()
			if r.cleanup != nil {
				r.cleanup()
			}
		},
	}, nil
}

// catalog is a config's names resolved once, at admission; the runners
// reuse it.
type catalog struct {
	spec *nn.Spec
	prof *dataset.Profile
	gen  cluster.SoCGeneration
}

// resolve looks a job's names up in their catalogs, each failure
// wrapping its sentinel. An empty generation is the default, sd865 (the
// mesh, which has no simulated silicon, passes it).
func resolve(model, data, generation string) (catalog, error) {
	var cat catalog
	var err error
	if cat.spec, err = nn.GetSpec(model); err != nil {
		return cat, fmt.Errorf("%w: %q (have %v)", ErrUnknownModel, model, Models())
	}
	if cat.prof, err = dataset.GetProfile(data); err != nil {
		return cat, fmt.Errorf("%w: %q (have %v)", ErrUnknownDataset, data, Datasets())
	}
	switch generation {
	case "", "sd865":
		cat.gen = cluster.Gen865
	case "sd8gen1":
		cat.gen = cluster.Gen8Gen1
	default:
		return cat, fmt.Errorf("%w: %q", ErrUnknownGeneration, generation)
	}
	return cat, nil
}

// cluster builds the modeled cluster of numSoCs SoCs of the resolved
// generation.
func (c catalog) cluster(numSoCs int) *cluster.Cluster {
	return cluster.New(cluster.Config{NumSoCs: numSoCs, Generation: c.gen})
}

// split generates a job's train and validation sets from one pass, so
// they share class prototypes.
func (c catalog) split(s JobSpec) (train, val *dataset.Dataset) {
	pool := c.prof.Generate(dataset.GenOptions{Samples: s.TrainSamples + s.ValSamples, Seed: s.Seed})
	return pool.Split(float64(s.TrainSamples) / float64(pool.Len()))
}

// checkJob rejects the shared job fields no run can train with. Zero
// values have already been replaced by their defaults, so only negative
// (or NaN) values reach it.
func checkJob(s JobSpec, numSoCs int) error {
	switch {
	case numSoCs < 1:
		return fmt.Errorf("%w: NumSoCs %d must be positive", ErrBadOption, numSoCs)
	case s.Epochs < 1:
		return fmt.Errorf("%w: Epochs %d must be positive", ErrBadOption, s.Epochs)
	case s.GlobalBatch < 1:
		return fmt.Errorf("%w: GlobalBatch %d must be positive", ErrBadOption, s.GlobalBatch)
	case !(s.LR > 0):
		return fmt.Errorf("%w: LR %v must be positive", ErrBadOption, s.LR)
	case s.TrainSamples < 1 || s.ValSamples < 1:
		return fmt.Errorf("%w: TrainSamples %d and ValSamples %d must be positive", ErrBadOption, s.TrainSamples, s.ValSamples)
	}
	return nil
}
