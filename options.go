package socflow

import (
	"fmt"
	"io"
	"log"
	"time"

	"socflow/internal/core"
	"socflow/internal/metrics"
	"socflow/internal/plan"
)

// Option tunes how a run executes without changing what a fault-free
// run computes: host parallelism, tracing, logging, metrics
// collection, and the elastic-recovery knobs (heartbeat detection,
// retry budget, auto-checkpointing). Absent failures, options never
// affect EpochAccuracies or SimSeconds — see DESIGN.md's "host
// parallelism vs. simulated concurrency" and §12 "Recovery model".
// The one exception is WithPlan, which by design substitutes the
// run's parallelization and therefore its results — see its comment.
type Option func(*runOptions)

type runOptions struct {
	parallelism int
	trace       io.Writer
	logger      *log.Logger
	metrics     *metrics.Registry

	// Control plane (see DESIGN.md §13).
	tenant   string
	priority int

	// Auto-parallelization (see DESIGN.md §16).
	plan *ParallelPlan

	// Elastic recovery (see DESIGN.md §12).
	hbInterval, hbTimeout time.Duration
	hbSet                 bool
	recovery              bool
	recoverySet           bool
	maxRetries            int
	retryBackoff          time.Duration
	checkpointEvery       int
	checkpointDir         string
	checkpointSet         bool
}

// WithParallelism caps the run's host parallelism at n: at most n
// logical groups or federated clients train at once, each running its
// kernels on its own goroutine. A serving job (Client.Serve) runs its
// served batches' eval forwards on n host workers, each on its own copy
// of the model's buffers over the shared weights, while its replay
// stays on the simulated clock. The width belongs to this run alone —
// concurrent runs keep their own, and the process default is never
// touched. n <= 0 keeps the default, runtime.GOMAXPROCS. Results are
// bit-identical at every parallelism level; only wall-clock time
// changes.
func WithParallelism(n int) Option {
	return func(o *runOptions) { o.parallelism = n }
}

// WithTrace streams one line per functional epoch ("epoch 3 acc=0.724
// sim=12.8s") to w. The write happens between epochs on the run's own
// goroutine, so a w that cancels the run's context stops training
// before the next epoch. The printer is a subscriber on the run's
// metrics event stream; it shares one code path with WithMetrics.
func WithTrace(w io.Writer) Option {
	return func(o *runOptions) { o.trace = w }
}

// WithLogger routes run-level progress messages (start, finish,
// per-epoch summaries) to l.
func WithLogger(l *log.Logger) Option {
	return func(o *runOptions) { o.logger = l }
}

// WithMetrics directs the run's observability stream into reg: epoch
// observations on both clocks, kernel and transport counters, simulated
// latency/energy gauges, and wall/sim spans. The registry is
// concurrency-safe and may be shared across runs (totals accumulate);
// snapshot it via Report.Metrics or reg.Snapshot(). Metrics never
// change training results.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *runOptions) { o.metrics = reg }
}

// WithHeartbeat tunes the distributed engine's failure detector: every
// worker beats every peer each interval, and a peer silent for timeout
// is declared dead from observed evidence (no shared fault plan).
// Setting it enables the elastic recovery track on RunDistributed —
// detected crashes degrade the group, scheduled returns rejoin with a
// leader-served state transfer. Keep timeout tens of intervals wide so
// scheduler hiccups are not declared deaths. Ignored by Run, whose
// simulated track has no transport to monitor.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(o *runOptions) {
		o.recovery = true
		o.hbSet = true
		o.hbInterval, o.hbTimeout = interval, timeout
	}
}

// WithRecovery bounds how failures are absorbed: a failed epoch is
// retried from its start-of-epoch snapshot at most maxRetries times,
// waiting k*backoff before attempt k. On RunDistributed it enables the
// elastic track (heartbeat detection at default knobs unless
// WithHeartbeat is also given); on Run it arms the strategy's epoch
// retry machinery (Job.MaxEpochRetries). Zero maxRetries keeps
// failures fatal.
func WithRecovery(maxRetries int, backoff time.Duration) Option {
	return func(o *runOptions) {
		o.recovery = true
		o.recoverySet = true
		o.maxRetries = maxRetries
		o.retryBackoff = backoff
	}
}

// WithCheckpointEvery saves an automatic checkpoint into dir every n
// epochs (and always after the final epoch), with retention bounded to
// the newest few files so long campaigns cannot fill the disk. Resume
// by loading the store's Latest(). Applies to both Run and
// RunDistributed.
func WithCheckpointEvery(n int, dir string) Option {
	return func(o *runOptions) {
		o.checkpointSet = true
		o.checkpointEvery = n
		o.checkpointDir = dir
	}
}

// WithTenant tags the job with a tenant name for the control plane's
// per-tenant quota accounting. The default tenant is "" (the shared
// pool). Ignored outside a server context only in that the unbounded
// in-process default server has no quotas configured.
func WithTenant(name string) Option {
	return func(o *runOptions) { o.tenant = name }
}

// WithPriority sets the job's scheduling priority (default 0). Higher
// priorities are admitted first and may preempt lower-priority
// preemptible jobs: the victim checkpoints at its next epoch boundary,
// parks, and resumes from that checkpoint when capacity returns.
func WithPriority(p int) Option {
	return func(o *runOptions) { o.priority = p }
}

// ParallelPlan is a searched auto-parallelization plan: group count,
// pipeline stages, per-stage placement, and the predicted epoch
// makespan. Obtain one from PlanParallelism (or build one by hand) and
// execute it with WithPlan.
type ParallelPlan = plan.Plan

// WithPlan executes the job under the given parallelization plan,
// overriding Config.Parallelism and (for data plans) Config.Groups.
// This is the escape hatch for searching once and reusing the plan
// across submissions, or for running a hand-built plan the planner
// would not choose. A plan the run could not execute as priced — wrong
// cluster size, or a data plan whose placement is not the
// integrity-greedy mapping or whose batch is not Config.PaperBatch —
// fails the submission with ErrBadPlan.
//
// Unlike every other option, WithPlan changes what the run computes:
// the plan decides pipeline-vs-data execution and the group count, so
// EpochAccuracies and SimSeconds follow the plan, not the config. It
// still preserves the determinism contract — a given (config, plan)
// pair is bit-reproducible at every parallelism level.
func WithPlan(p *ParallelPlan) Option {
	return func(o *runOptions) { o.plan = p }
}

// gatherOptions applies opts and validates the result, so an invalid
// combination fails the submission up front (wrapping ErrBadOption)
// instead of silently arming machinery with knobs it would misapply.
func gatherOptions(opts []Option) (runOptions, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.hbSet {
		if o.hbInterval <= 0 || o.hbTimeout <= 0 {
			return o, fmt.Errorf("%w: WithHeartbeat(%v, %v): interval and timeout must be positive",
				ErrBadOption, o.hbInterval, o.hbTimeout)
		}
		if o.hbTimeout <= o.hbInterval {
			return o, fmt.Errorf("%w: WithHeartbeat(%v, %v): timeout must exceed the interval, ideally by tens of beats, or every scheduler hiccup is declared a death",
				ErrBadOption, o.hbInterval, o.hbTimeout)
		}
	}
	if o.checkpointSet {
		if o.checkpointEvery <= 0 {
			return o, fmt.Errorf("%w: WithCheckpointEvery(%d, %q): the epoch stride must be positive",
				ErrBadOption, o.checkpointEvery, o.checkpointDir)
		}
		if o.checkpointDir == "" {
			return o, fmt.Errorf("%w: WithCheckpointEvery(%d, \"\"): a checkpoint directory is required",
				ErrBadOption, o.checkpointEvery)
		}
	}
	if o.recoverySet {
		if o.maxRetries < 0 {
			return o, fmt.Errorf("%w: WithRecovery(%d, %v): the retry budget cannot be negative",
				ErrBadOption, o.maxRetries, o.retryBackoff)
		}
		if o.retryBackoff < 0 {
			return o, fmt.Errorf("%w: WithRecovery(%d, %v): the backoff cannot be negative",
				ErrBadOption, o.maxRetries, o.retryBackoff)
		}
	}
	return o, nil
}

// logf writes a run-level progress message to the WithLogger logger.
func (o *runOptions) logf(format string, args ...any) {
	if o.logger != nil {
		o.logger.Printf(format, args...)
	}
}

// checkpointStore opens the auto-checkpoint store requested by
// WithCheckpointEvery, with retention bounded to the newest three
// files (nil when the option was not given).
func (o *runOptions) checkpointStore() (*core.CheckpointStore, error) {
	if o.checkpointDir == "" {
		return nil, nil
	}
	store, err := core.NewCheckpointStore(o.checkpointDir)
	if err != nil {
		return nil, err
	}
	store.KeepLast = 3
	return store, nil
}

// registry returns the registry this run publishes into: the
// user-supplied one, an ephemeral one when only the trace writer or
// logger needs the event stream, or nil (instrumentation disabled at
// zero cost — all metrics methods are no-ops on nil receivers).
func (o *runOptions) registry() *metrics.Registry {
	if o.metrics != nil {
		return o.metrics
	}
	if o.trace != nil || o.logger != nil {
		return metrics.New()
	}
	return nil
}

// subscribe attaches the trace writer and logger as subscribers of the
// registry's epoch events. Subscribers run synchronously on the
// strategy goroutine between epochs, preserving WithTrace's contract
// that a cancelling writer stops the run before the next epoch.
func (o *runOptions) subscribe(reg *metrics.Registry) {
	if reg == nil || (o.trace == nil && o.logger == nil) {
		return
	}
	reg.Subscribe(func(e metrics.Event) {
		if e.Kind != metrics.KindEpoch {
			return
		}
		// Strategies count epochs from 0; reports are 1-based.
		if o.trace != nil {
			fmt.Fprintf(o.trace, "epoch %d acc=%.4f sim=%.1fs\n", e.Epoch+1, e.Acc, e.SimSeconds)
		}
		if o.logger != nil {
			o.logger.Printf("epoch %d: accuracy %.4f, simulated %.1fs", e.Epoch+1, e.Acc, e.SimSeconds)
		}
	})
}
