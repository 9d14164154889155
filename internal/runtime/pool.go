package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/transport"
)

// pool is the one worker-pool scaffold every track runs on: one
// goroutine per launched node, first-error teardown, and joined,
// worker-named errors. Workers block in collectives, not on ctx, so
// both the first failing worker and a cancelled ctx call teardown —
// closing the mesh errors every peer out of its Recv and the pool
// unwinds instead of deadlocking in wg.Wait.
type pool struct {
	reg      *metrics.Registry
	prefix   string // names workers in errors: "worker 3", "stage worker 5"
	teardown func()
	work     func(id int) error

	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

// newPool builds a pool whose teardown runs closeAll at most once.
func newPool(reg *metrics.Registry, prefix string, closeAll func(), work func(id int) error) *pool {
	return &pool{reg: reg, prefix: prefix, teardown: sync.OnceFunc(closeAll), work: work}
}

// launch starts node id's worker. The elastic manager also calls it to
// respawn a re-admitted node.
func (p *pool) launch(id int) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		err := p.work(id)
		if err == nil {
			return
		}
		p.mu.Lock()
		p.errs = append(p.errs, fmt.Errorf("%s %d: %w", p.prefix, id, err))
		p.mu.Unlock()
		p.reg.Counter("runtime.worker.errors").Inc()
		p.reg.Emit(metrics.Event{Kind: metrics.KindWorkerError, Node: id, Detail: err.Error()})
		p.teardown()
	}()
}

// wait blocks until every worker has returned and reports ctx.Err()
// on cancellation, else the joined worker errors.
func (p *pool) wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, p.teardown)
	defer stop()
	p.wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return errors.Join(p.errs...)
}

// reporter is the global leader's epoch-end duty on every track:
// evaluate, record, observe, notify, checkpoint. Leadership migrates
// under recovery, so every worker holds the run's one reporter.
type reporter struct {
	cfg *DistConfig
	val *dataset.Dataset
	mu  sync.Mutex
	res *DistResult

	// pricer, when set, re-prices cfg.Plan at every epoch end for the
	// plan.* drift gauges, against predicted.
	pricer    *autoplan.Pricer
	samples   int
	predicted float64
}

func newReporter(cfg *DistConfig, val *dataset.Dataset) *reporter {
	return &reporter{cfg: cfg, val: val, res: &DistResult{EpochAccuracies: make([]float64, cfg.Epochs)}}
}

// epochEnd reports epoch's aggregated model. The mesh tracks have no
// simulated clock, so epochs land on the wall clock only.
func (r *reporter) epochEnd(epoch int, model *nn.Sequential) error {
	cfg := r.cfg
	acc := core.EvalAccuracy(model, r.val)
	last := epoch == cfg.Epochs-1
	r.mu.Lock()
	r.res.EpochAccuracies[epoch] = acc
	if last {
		r.res.Final = model
	}
	var executed float64
	if r.pricer != nil {
		executed = r.pricer.EpochSeconds(cfg.Plan, r.samples)
	}
	r.mu.Unlock()
	if r.pricer != nil {
		core.PublishPlanDrift(cfg.Metrics, r.predicted, executed)
	}
	cfg.Metrics.ObserveEpoch(epoch, acc, 0)
	if cfg.EpochEnd != nil {
		cfg.EpochEnd(epoch, acc)
	}
	if cfg.Checkpoints == nil || !core.CheckpointDue(cfg.CheckpointEvery, epoch, cfg.Epochs) {
		return nil
	}
	cp := &core.Checkpoint{Epoch: epoch + 1, Weights: model.Weights(), State: model.StateTensors()}
	if err := cfg.Checkpoints.Save(cp); err != nil {
		return fmt.Errorf("runtime: auto-checkpoint at epoch %d: %w", epoch, err)
	}
	cfg.Metrics.Counter("runtime.checkpoints.saved").Inc()
	return nil
}

// watchDrift makes the reporter publish the plan.* drift gauges at
// every epoch end: the plan's predicted epoch seconds (as the search
// recorded them, or priced at launch for a plan no search priced)
// against its price on the simulated cluster, with the options the
// search used. It prices only when a registry is attached.
func (r *reporter) watchDrift(spec *nn.Spec, numSoCs, samples int) {
	cfg := r.cfg
	if cfg.Metrics == nil {
		return
	}
	var o autoplan.Options
	if cfg.Planner != nil {
		o = *cfg.Planner
	}
	o = PlannerOptions(o, spec, numSoCs, cfg.GlobalBatch, samples)
	r.pricer, r.samples = autoplan.PricerFor(o), o.Samples
	cfg.Kernels.TrackNet(r.pricer.Clu)
	r.predicted = cfg.Plan.EpochSeconds
	if r.predicted == 0 {
		r.predicted = r.pricer.EpochSeconds(cfg.Plan, r.samples)
	}
}

// faultClock is a worker's view of the scripted fault plan: it moves
// the node's fault clock to each trigger point and, on the elastic
// tracks (plan set), recognizes the worker's own preemption there. That
// is self-knowledge (the scheduler told this SoC to yield), not
// plan-peeking — peers still learn of it only through lost heartbeats.
// On the plain track plan stays nil and a crash surfaces as a
// transport error that tears the run down.
type faultClock struct {
	node   transport.Node
	ticker transport.FaultTicker
	plan   *transport.FaultPlan
	reg    *metrics.Registry
}

// newFaultClock builds a clock that only ticks; set plan to also
// recognize the worker's own preemption points.
func newFaultClock(node transport.Node, reg *metrics.Registry) faultClock {
	ticker, _ := node.(transport.FaultTicker)
	return faultClock{node: node, ticker: ticker, reg: reg}
}

// errSelfCrash marks the worker's own injected preemption point; the
// worker exits cleanly.
var errSelfCrash = errors.New("runtime: self preemption")

// crashedAt ticks the clock to (epoch, iter) and reports whether the
// worker's own crash window covers that point.
func (f *faultClock) crashedAt(epoch, iter int) bool {
	if f.ticker != nil {
		f.ticker.TickFault(epoch, iter)
	}
	if !f.plan.CrashedAt(f.node.ID(), epoch, iter) {
		return false
	}
	f.crashed(epoch, iter)
	return true
}

func (f *faultClock) crashed(epoch, iter int) {
	f.reg.Counter("runtime.faults.crashes").Inc()
	f.reg.Emit(metrics.Event{Kind: metrics.KindFault, Epoch: epoch, Iter: iter, Node: f.node.ID(), Detail: "crash"})
}
