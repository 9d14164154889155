package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	"socflow/internal/tensor"
)

// replica is one functional model copy a strategy trains: a logical
// group's lifted model (SoCFlow, Pipeline), the fleet's single model
// (SyncSGD) or one federated client (FedSGD). Because every SoC in a
// group runs SSGD with per-batch ring synchronization, the group is
// mathematically a single model trained with the group's global batch
// (TestSSGDGroupLiftEquivalence verifies this exactly); the
// mixed-precision CPU/NPU pair is therefore lifted to one FP32+INT8
// replica pair per group. The only approximation is batch-norm
// statistics, which the lift estimates from the combined batch instead
// of per-member shards — strictly *more* stable than the real system.
type replica struct {
	// model is the FP32 model — trained, evaluated and checkpointed —
	// and opt its optimizer.
	model *nn.Sequential
	opt   *nn.SGD
	// mp, when non-nil, is the mixed-precision pair that owns model (its
	// FP32 side) and opt, and trains an INT8 replica next to them.
	mp *MixedPrecision
	// extra is optimizer-side state beyond SGD momentum that an epoch
	// retry must also roll back (HiPress error-feedback residuals).
	extra []*tensor.Tensor
}

// newReplica builds a plain FP32 replica initialised from ref.
func newReplica(job *Job, rng *tensor.RNG, ref *nn.Sequential) *replica {
	r := &replica{model: job.BuildModel(rng), opt: nn.NewSGD(job.LR, job.Momentum, 0)}
	r.model.CopyWeightsFrom(ref)
	return r
}

func (r *replica) weights() []*tensor.Tensor { return r.model.Weights() }

func (r *replica) state() []*tensor.Tensor { return r.model.StateTensors() }

// retryState is the full state an epoch retry must roll back:
// batch-norm running statistics plus the optimizer's live momentum
// buffers. Without the velocities, a replayed epoch would restart SGD
// momentum from zero and diverge from the attempt a clean run would
// have made.
func (r *replica) retryState() []*tensor.Tensor {
	st := append([]*tensor.Tensor{}, r.state()...)
	return append(append(st, r.opt.VelocityTensors(r.model.Params())...), r.extra...)
}

func (r *replica) setLR(lr float32) {
	if r.mp != nil {
		r.mp.SetLR(lr)
	} else {
		r.opt.LR = lr
	}
}

// step trains the replica on one batch.
func (r *replica) step(x *tensor.Tensor, labels []int) {
	if r.mp != nil {
		r.mp.Step(x, labels)
	} else {
		plainStep(r.model, r.opt, x, labels)
	}
}

// restore copies a snapshot into the replica. The INT8 side carries no
// momentum and is requantized from the restored FP32 weights.
func (r *replica) restore(cp *Checkpoint, state []*tensor.Tensor) {
	cp.Restore(r.weights(), state)
	if r.mp != nil {
		r.mp.AdoptMerged()
	}
}

// averageReplicas is the delayed aggregation (§3.1): once per epoch the
// replicas' weights and layer state are averaged in place.
func averageReplicas(reps []*replica) {
	sets := make([][]*tensor.Tensor, len(reps))
	states := make([][]*tensor.Tensor, len(reps))
	for i, r := range reps {
		sets[i] = r.weights()
		states[i] = r.state()
	}
	collective.AverageInPlace(sets)
	collective.AverageInPlace(states)
}

// training is the functional half of a run: the replicas it trains
// and one attempt at an epoch — position the data at the start of that
// epoch (a function of the job and the epoch alone, so a resumed or
// retried epoch replays the identical batches), train every replica
// through it and aggregate. attempt returns the index of a replica
// holding the aggregated model. A cancelled attempt returns early; the
// driver checks ctx.
type training struct {
	reps    []*replica
	attempt func(ctx context.Context, epoch int) (lead int)
}

// epochPrice is the priced half of a run: it prices the attempt the
// training just made on the simulated cluster, charges the member's
// energy meter and Breakdown, and returns the attempt's simulated
// seconds.
type epochPrice func() float64

// runner is a strategy the epoch driver runs. Every strategy in this
// package is one.
type runner interface {
	Strategy
	// trainingKey identifies the functional training the strategy runs
	// on clu: runners whose keys are non-nil and equal train the same
	// replicas to the same bits on the same job, so one training serves
	// them all. A nil key trains alone. Keys come from configuration,
	// never from Name.
	trainingKey(clu *cluster.Cluster) any
	// build returns the strategy's price, charging res and meter, on top
	// of tr — building tr first when it is nil. A non-nil tr was built
	// by a runner with an equal key.
	build(job *Job, clu *cluster.Cluster, tr *training, res *Result, meter *cluster.EnergyMeter) (*training, epochPrice, error)
}

// runOne is Strategy.Run for every runner: runEpochs with one member.
func runOne(ctx context.Context, job *Job, clu *cluster.Cluster, s runner) (*Result, error) {
	res, err := runEpochs(ctx, job, clu, []runner{s})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunStrategies runs every strategy on one job and returns their
// results in order, each equal to the strategy's own Run bit for bit:
// accuracies, simulated seconds, energy, breakdown, retries and final
// tensors. Strategies that train identically share one training —
// every SyncSGD without a Compressor, and FedSGDs whose LocalEpochs,
// Clients and DirichletAlpha agree after defaulting — and each member
// is priced on its own. Sharing ends with the call: nothing carries
// over to another call, job or cluster. The job's hooks follow the
// training: EpochFault, ShouldPark and the auto-checkpoint run once per
// shared attempt or epoch, while EpochEnd and the registry see every
// member's epochs. A strategy from outside this package runs through
// its own Run.
func RunStrategies(ctx context.Context, job *Job, clu *cluster.Cluster, strats []Strategy) ([]*Result, error) {
	out := make([]*Result, len(strats))
	for i, s := range strats {
		if out[i] != nil {
			continue
		}
		r, ok := s.(runner)
		if !ok {
			res, err := s.Run(ctx, job, clu)
			if err != nil {
				return nil, err
			}
			out[i] = res
			continue
		}
		idx, members := []int{i}, []runner{r}
		if key := r.trainingKey(clu); key != nil {
			for j := i + 1; j < len(strats); j++ {
				if o, ok := strats[j].(runner); ok && out[j] == nil && o.trainingKey(clu) == key {
					idx, members = append(idx, j), append(members, o)
				}
			}
		}
		res, err := runEpochs(ctx, job, clu, members)
		if err != nil {
			return nil, err
		}
		for k, j := range idx {
			out[j] = res[k]
		}
	}
	return out, nil
}

// member is one strategy riding a training: its result, meter, price
// and the epoch's simulated seconds so far.
type member struct {
	res       *Result
	meter     *cluster.EnergyMeter
	price     epochPrice
	epochTime float64
}

// runEpochs is the one epoch driver behind every Strategy.Run and
// RunStrategies. It owns the job lifecycle — validation,
// Resume/StartEpoch, the per-epoch learning rate, bounded retry from
// start-of-epoch snapshots, the auto-checkpoint stride, evaluation,
// epoch reporting, early stop, the park protocol and the final result —
// so every strategy honours every lifecycle field of Job. The runners
// share one training (they have equal training keys, or there is one
// of them); each attempt is priced once per member, failed ones too,
// and each member reports its epochs, charges its meter and gets its
// own copies of the final tensors, as its own run would. Pricing
// simulates the network on clu, which the job's harvest tracks.
func runEpochs(ctx context.Context, job *Job, clu *cluster.Cluster, runners []runner) ([]*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	job.Kernels.TrackNet(clu)
	ms := make([]member, len(runners))
	var tr *training
	for i, r := range runners {
		ms[i].res = &Result{Strategy: r.Name()}
		ms[i].meter = cluster.NewEnergyMeter(clu.Config.NumSoCs)
		var err error
		if tr, ms[i].price, err = r.build(job, clu, tr, ms[i].res, ms[i].meter); err != nil {
			return nil, err
		}
	}
	reps := tr.reps

	// Resuming a parked job: every replica restarts from the checkpoint.
	// Momentum restarts, as on a real resume.
	if job.Resume != nil {
		for _, r := range reps {
			r.restore(job.Resume, r.state())
		}
	}

	lead := 0
	for epoch := job.StartEpoch; epoch < job.Epochs; epoch++ {
		lr := job.EpochLR(epoch)
		for _, r := range reps {
			r.setLR(lr)
		}

		// Start-of-epoch snapshots back the bounded retry: if the epoch
		// fails (injected fault or non-finite weights), every replica
		// rolls back and replays the identical batches.
		var snaps []*Checkpoint
		if job.MaxEpochRetries > 0 {
			snaps = make([]*Checkpoint, len(reps))
			for i, r := range reps {
				snaps[i] = TakeCheckpoint(epoch, r.weights(), r.retryState())
			}
		}

		// Failed attempts accumulate too — retried work costs real
		// simulated time and energy.
		for i := range ms {
			ms[i].epochTime = 0
		}
		for try := 0; ; try++ {
			lead = tr.attempt(ctx, epoch)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for i := range ms {
				ms[i].epochTime += ms[i].price()
			}
			failure := epochFailure(job, reps[lead], epoch, try)
			if failure == nil {
				break
			}
			if try >= job.MaxEpochRetries {
				return nil, fmt.Errorf("core: epoch %d failed after %d attempts: %w", epoch, try+1, failure)
			}
			for i := range ms {
				ms[i].res.EpochRetries++
				job.Metrics.Counter("core.epoch.retries").Inc()
				job.Metrics.Emit(metrics.Event{Kind: metrics.KindRetry, Epoch: epoch, Iter: try + 1, Detail: failure.Error()})
			}
			for i, r := range reps {
				r.restore(snaps[i], r.retryState())
			}
			if job.RetryBackoff > 0 {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(time.Duration(try+1) * job.RetryBackoff):
				}
			}
		}

		// Periodic auto-checkpointing: the aggregated weights land in
		// the store on the configured stride, atomically and (with
		// KeepLast) with bounded retention.
		if job.Checkpoints != nil && CheckpointDue(job.CheckpointEvery, epoch, job.Epochs) {
			cp := &Checkpoint{Epoch: epoch + 1, Weights: reps[lead].weights(), State: reps[lead].state()}
			if err := job.Checkpoints.Save(cp); err != nil {
				return nil, fmt.Errorf("core: auto-checkpoint at epoch %d: %w", epoch, err)
			}
			job.Metrics.Counter("core.checkpoints.saved").Inc()
		}

		acc := EvalAccuracy(reps[lead].model, job.Val)
		for i := range ms {
			ms[i].res.observe(acc, ms[i].epochTime, job.TargetAccuracy)
			job.epochEnd(epoch, acc, ms[i].epochTime)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Members see one accuracy, so they stop together.
		if ms[0].res.done(job.TargetAccuracy) {
			break
		}
		if epoch+1 < job.Epochs && job.ShouldPark != nil && job.ShouldPark() {
			for i := range ms {
				ms[i].res.Parked = true
			}
			break
		}
	}
	out := make([]*Result, len(ms))
	for i, m := range ms {
		res := m.res
		res.EnergyJ = m.meter.Total()
		m.meter.Publish(job.Metrics)
		publishResult(job.Metrics, res)
		for _, w := range reps[lead].weights() {
			res.FinalWeights = append(res.FinalWeights, w.Clone())
		}
		for _, st := range reps[lead].state() {
			res.FinalState = append(res.FinalState, st.Clone())
		}
		out[i] = res
	}
	return out, nil
}

// epochFailure decides whether an epoch attempt failed: the injected
// fault hook fires first, then a cheap non-finite sweep over the
// aggregated weights catches numerically exploded attempts (averaging
// spreads any replica's NaN to all of them). The sweep only runs when
// the retry machinery is in use, so the default path pays nothing.
func epochFailure(job *Job, lead *replica, epoch, attempt int) error {
	if job.EpochFault != nil {
		if err := job.EpochFault(epoch, attempt); err != nil {
			return err
		}
	}
	if job.MaxEpochRetries <= 0 {
		return nil
	}
	var sum float64
	for _, w := range lead.weights() {
		for _, v := range w.Data {
			sum += float64(v)
		}
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		return fmt.Errorf("core: weights non-finite after epoch %d", epoch)
	}
	return nil
}

// plainStep runs a standard FP32 SGD step.
func plainStep(model *nn.Sequential, opt *nn.SGD, x *tensor.Tensor, labels []int) float32 {
	loss := lossBackward(model, x, labels)
	opt.Step(model.Params())
	return loss
}

// lossBackward is the gradient half of a step: it leaves the batch's
// mean-loss gradients in the model's parameters and returns the loss.
func lossBackward(model *nn.Sequential, x *tensor.Tensor, labels []int) float32 {
	model.ZeroGrad()
	logits := model.Forward(x, true)
	loss, g := nn.SoftmaxCrossEntropy(logits, labels)
	model.Backward(g)
	return loss
}
