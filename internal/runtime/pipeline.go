package runtime

import (
	"fmt"

	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// stageGroups returns the nodes a plan trains on, per group: every
// member of a data plan, a pipeline's stage nodes in stage order.
// Pipeline members beyond the depth hold no stage and host no worker.
func stageGroups(p *autoplan.Plan) [][]int {
	if p.Mode == autoplan.ModeData {
		return p.Placement
	}
	out := make([][]int, len(p.Placement))
	for g, members := range p.Placement {
		out[g] = members[:p.Depth()]
	}
	return out
}

// pipeWorker is one placed stage's execution state, shared between the
// plain and elastic pipeline tracks: the full seed-built replica, the
// current plan position's stage views and optimizer, and the shared
// data schedule. The elastic track reconfigures it in place when a
// re-plan moves the stage boundary or the node's position.
type pipeWorker struct {
	node  transport.Node
	cfg   *DistConfig
	rep   *reporter
	clock faultClock

	// Every node builds the identical full replica from the seed and
	// then trains only its own contiguous layer slice. Fused stage
	// execution is bit-identical to the unfused walk, so where the cut
	// lands never changes the math.
	model   *nn.Sequential
	weights []*tensor.Tensor // full-replica weight views
	state   []*tensor.Tensor // full-replica batch-norm state views
	full    []*tensor.Tensor // weights ++ state, the full-model sync set

	p     *autoplan.Plan
	g, i  int
	stage *nn.Sequential
	opt   *nn.SGD
	vel   []*tensor.Tensor // own-stage optimizer velocities
	sync  []*tensor.Tensor // own-stage weights ++ state
	// stageSync[j] are per-stage views into the full replica; the
	// epoch-end leader installs gathered slices through them. Built on
	// every node because leadership migrates on the elastic track.
	stageSync [][]*tensor.Tensor

	sched dataset.Schedule

	syncFlat []float32
	// The stage relay's frame buffers (sendOne, recvOne).
	relayOut      []byte
	actIn, gradIn []*tensor.Tensor
	// elastic switches on the epoch-end leader-served full-model sync
	// (every placed node ends the epoch holding the aggregated model,
	// so any survivor can donate state to a re-plan).
	elastic bool

	cIters    *metrics.Counter
	cActBytes *metrics.Counter
	cSyncB    *metrics.Counter
}

func newPipeWorker(node transport.Node, model *nn.Sequential, train *dataset.Dataset, cfg *DistConfig, rep *reporter) *pipeWorker {
	w := &pipeWorker{node: node, cfg: cfg, rep: rep}
	w.sched = dataset.Schedule{Train: train, Batch: cfg.GlobalBatch, Seed: cfg.Seed}
	w.clock = newFaultClock(node, cfg.Metrics)
	w.model = cfg.Kernels.Track(model)
	w.weights = w.model.Weights()
	w.state = w.model.StateTensors()
	w.full = append(append([]*tensor.Tensor{}, w.weights...), w.state...)
	reg := cfg.Metrics
	w.cIters = reg.Counter("runtime.iterations")
	w.cActBytes = reg.Counter("runtime.pipeline.act.bytes")
	w.cSyncB = reg.Counter("runtime.pipeline.sync.bytes")
	return w
}

// configure (re)points the worker at position (g, i) of a plan: stage
// views, a fresh optimizer (velocities start at zero — an elastic
// reconfiguration cannot carry momentum across a changed stage
// boundary), and the per-stage assembly views.
func (w *pipeWorker) configure(p *autoplan.Plan, g, i int) {
	w.p, w.g, w.i = p, g, i
	st := p.Stages[i]
	w.stage = nn.NewSequential(w.model.Layers[st.From : st.To+1]...)
	w.opt = nn.NewSGD(w.cfg.LR, w.cfg.Momentum, 0)
	w.vel = w.opt.VelocityTensors(w.stage.Params())
	w.sync = append(w.stage.Weights(), w.stage.StateTensors()...)
	d := p.Depth()
	w.stageSync = make([][]*tensor.Tensor, d)
	for j := 0; j < d; j++ {
		sj := p.Stages[j]
		seq := nn.NewSequential(w.model.Layers[sj.From : sj.To+1]...)
		w.stageSync[j] = append(seq.Weights(), seq.StateTensors()...)
	}
}

// sameStage reports whether the worker's current stage views remain
// valid at stage i of plan p — same stage index and identical cut
// boundaries — so a degrade-in-place or retry keeps optimizer momentum.
func (w *pipeWorker) sameStage(p *autoplan.Plan, i int) bool {
	if w.p == nil || w.i != i || len(w.p.Stages) != len(p.Stages) {
		return false
	}
	for j := range p.Stages {
		if w.p.Stages[j].From != p.Stages[j].From || w.p.Stages[j].To != p.Stages[j].To {
			return false
		}
	}
	return true
}

// runEpoch is one epoch at the worker's current position: the
// micro-batch relay with its neighbours every iteration, the optimizer
// step on its own parameters, and the per-epoch cross-group ring plus
// leader gather. The position comes from configure, not from the
// round. Returns errSelfCrash at the worker's own preemption point.
func (w *pipeWorker) runEpoch(epoch int, _ *round) error {
	p := w.p
	cfg := w.cfg
	n := p.Groups()
	// The same question core.Pipeline asks, under the current plan's
	// group count: a retry or a re-plan just asks it again.
	it := w.sched.Iterator(n, w.g, epoch)
	d := p.Depth()
	g, i := w.g, w.i
	me := w.node.ID()
	leader := p.Placement[0][0]
	reg := cfg.Metrics

	// The stage-position ring across groups, in group order — every
	// participant derives the identical member list from the plan.
	ring := make([]int, n)
	for gg := 0; gg < n; gg++ {
		ring[gg] = p.Placement[gg][i]
	}
	var prev, next int = -1, -1
	if i > 0 {
		prev = p.Placement[g][i-1]
	}
	if i < d-1 {
		next = p.Placement[g][i+1]
	}

	epochSpan := reg.BeginSpan("epoch", "stage", me)
	defer epochSpan.End()
	steps := w.sched.Steps(n, epoch)
	for s := 0; s < steps; s++ {
		if w.clock.crashedAt(epoch, s) {
			return errSelfCrash
		}
		x, labels := it.Next()
		bs := x.Shape[0]
		micro := p.MicroBatches
		if micro > bs {
			micro = bs
		}
		w.stage.ZeroGrad()
		for mbi := 0; mbi < micro; mbi++ {
			lo := mbi * bs / micro
			hi := (mbi + 1) * bs / micro
			if lo == hi {
				continue
			}
			// Forward relay: stage 0 feeds its micro-batch slice,
			// everyone else transforms what the left neighbour sent.
			var act *tensor.Tensor
			if i == 0 {
				act = w.stage.Forward(tensor.Rows(x, lo, hi), true)
			} else {
				in, err := w.recvOne(prev, &w.actIn)
				if err != nil {
					return err
				}
				act = w.stage.Forward(in, true)
			}
			// Backward relay: the last stage turns logits into a loss
			// gradient pre-scaled by the micro-batch's share (backward
			// is linear in the output gradient, so the accumulated
			// total is the full-batch mean gradient), and input
			// gradients flow back to stage 0.
			var outGrad *tensor.Tensor
			if i == d-1 {
				_, gr := nn.SoftmaxCrossEntropy(act, labels[lo:hi])
				tensor.Scale(float32(hi-lo)/float32(bs), gr)
				outGrad = gr
			} else {
				if err := w.sendOne(next, act); err != nil {
					return err
				}
				gr, err := w.recvOne(next, &w.gradIn)
				if err != nil {
					return err
				}
				outGrad = gr
			}
			inGrad := w.stage.Backward(outGrad)
			if i > 0 {
				if err := w.sendOne(prev, inGrad); err != nil {
					return err
				}
			}
		}
		w.opt.Step(w.stage.Params())
		if i == 0 {
			w.cIters.Inc()
		}
	}

	if w.clock.crashedAt(epoch, transport.IterEpochEnd) {
		return errSelfCrash
	}

	// Delayed aggregation: same-stage nodes average their slice
	// (weights and batch-norm state) across groups, once per epoch.
	if n > 1 {
		w.syncFlat = flattenInto(w.syncFlat, w.sync)
		if err := RingAllReduceAverage(w.node, ring, w.syncFlat); err != nil {
			return err
		}
		unflatten(w.syncFlat, w.sync)
	}

	// Group 0 ships its stage slices to the leader, which assembles
	// the aggregated full model and evaluates.
	if g == 0 && i > 0 {
		if err := w.node.Send(leader, transport.EncodeTensors(w.sync)); err != nil {
			return err
		}
	}
	if me == leader {
		for j := 1; j < d; j++ {
			msg, err := w.node.Recv(p.Placement[0][j])
			if err != nil {
				return err
			}
			ts, err := transport.DecodeTensors(msg)
			if err != nil {
				return err
			}
			if len(ts) != len(w.stageSync[j]) {
				return fmt.Errorf("runtime: stage %d gather holds %d tensors, want %d", j, len(ts), len(w.stageSync[j]))
			}
			for k, t := range ts {
				w.stageSync[j][k].CopyFrom(t)
			}
		}
		if err := w.rep.epochEnd(epoch, w.model); err != nil {
			return err
		}
	}

	if w.elastic {
		// Leader-served full-model sync: every placed node ends the
		// epoch holding the aggregated model, so a re-plan can source
		// state from any survivor. Installs are value-identical for a
		// node's own slices (the ring already agreed bitwise), so the
		// fault-free math is untouched.
		if err := w.syncFullModel(); err != nil {
			return err
		}
	}
	return nil
}

// recvOne takes one stage-boundary tensor from a neighbour, decoded
// into *into: the relay keeps one received tensor per direction
// (activations from prev, gradients from next), and each is consumed
// before the next frame from its direction arrives.
func (w *pipeWorker) recvOne(from int, into *[]*tensor.Tensor) (*tensor.Tensor, error) {
	msg, err := w.node.Recv(from)
	if err != nil {
		return nil, err
	}
	ts, err := transport.DecodeTensorsInto(*into, msg)
	if err != nil {
		return nil, err
	}
	*into = ts
	if len(ts) != 1 {
		return nil, fmt.Errorf("runtime: stage boundary frame holds %d tensors, want 1", len(ts))
	}
	return ts[0], nil
}

// sendOne ships one stage-boundary tensor to a neighbour, encoded into
// the relay's one reused frame buffer.
func (w *pipeWorker) sendOne(to int, t *tensor.Tensor) error {
	w.relayOut = tensor.AppendSet(w.relayOut[:0], []*tensor.Tensor{t})
	w.cActBytes.Add(int64(len(w.relayOut)))
	return w.node.Send(to, w.relayOut)
}

// syncFullModel ships the leader's assembled model to every other
// placed node of the current plan and installs it there.
func (w *pipeWorker) syncFullModel() error {
	p := w.p
	me := w.node.ID()
	leader := p.Placement[0][0]
	d := p.Depth()
	if me != leader {
		msg, err := w.node.Recv(leader)
		if err != nil {
			return err
		}
		ts, err := transport.DecodeTensors(msg)
		if err != nil {
			return err
		}
		if len(ts) != len(w.full) {
			return fmt.Errorf("runtime: full-model sync holds %d tensors, want %d", len(ts), len(w.full))
		}
		for k, t := range ts {
			w.full[k].CopyFrom(t)
		}
		return nil
	}
	blob := transport.EncodeTensors(w.full)
	for gg := range p.Placement {
		for j := 0; j < d; j++ {
			to := p.Placement[gg][j]
			if to == me {
				continue
			}
			w.cSyncB.Add(int64(len(blob)))
			if err := w.node.Send(to, blob); err != nil {
				return err
			}
		}
	}
	return nil
}
