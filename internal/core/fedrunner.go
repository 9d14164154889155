package core

import (
	"context"

	"socflow/internal/cluster"
	"socflow/internal/collective"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
)

// FedSGD is the shared engine behind the federated baselines (FedAvg
// and tree-aggregated T-FedAvg): every SoC is an independent client
// that trains locally for LocalEpochs passes over its fixed shard, then
// the server aggregates weighted model averages once per round. No
// per-batch synchronization and no cross-client data movement — which
// is exactly what buys FL its low communication and costs it gradient
// staleness (the paper's Table 3 shows 2-6% accuracy loss and Fig. 10
// shows more rounds to the same target).
//
// LocalEpochs, Clients and DirichletAlpha belong to the training; AggTime
// belongs to the price. FedSGDs whose training fields agree after
// defaulting train the same clients to the same bits, and
// RunStrategies trains them once.
type FedSGD struct {
	// StrategyName labels results ("FedAvg", "T-FedAvg").
	StrategyName string
	// AggTime prices one aggregation round across the fleet.
	AggTime func(clu *cluster.Cluster, spec *nn.Spec) float64
	// LocalEpochs is the number of local passes per round (default 1,
	// FedAvg's E parameter).
	LocalEpochs int
	// Clients caps the number of functional clients (default: one per
	// SoC).
	Clients int
	// DirichletAlpha, when positive, shards client data non-IID with
	// per-class Dirichlet(alpha) proportions instead of IID — the
	// standard FL heterogeneity benchmark. FL clients keep their shard
	// for the whole run, so skew compounds round after round.
	DirichletAlpha float64
}

// Name implements Strategy.
func (s *FedSGD) Name() string { return s.StrategyName }

// Run implements Strategy.
func (s *FedSGD) Run(ctx context.Context, job *Job, clu *cluster.Cluster) (*Result, error) {
	return runOne(ctx, job, clu, s)
}

// fedTraining is a federated training's key: its fields after
// defaulting.
type fedTraining struct {
	clients, localEpochs int
	alpha                float64 // 0: IID shards
}

// config returns the training's fields after defaulting on clu.
func (s *FedSGD) config(clu *cluster.Cluster) fedTraining {
	m := clu.Config.NumSoCs
	k := fedTraining{clients: s.Clients, localEpochs: s.LocalEpochs, alpha: s.DirichletAlpha}
	if k.clients <= 0 || k.clients > m {
		k.clients = m
	}
	if k.localEpochs <= 0 {
		k.localEpochs = 1
	}
	if !(k.alpha > 0) {
		k.alpha = 0
	}
	return k
}

func (s *FedSGD) trainingKey(clu *cluster.Cluster) any { return s.config(clu) }

// build prices one federated round per epoch attempt.
func (s *FedSGD) build(job *Job, clu *cluster.Cluster, tr *training, res *Result, meter *cluster.EnergyMeter) (*training, epochPrice, error) {
	k := s.config(clu)
	if tr == nil {
		tr = k.train(job)
	}

	// Pricing: clients train in parallel; a round costs the slowest
	// client's local epochs plus one aggregation.
	m := clu.Config.NumSoCs
	paperShard := job.PaperSamples / m
	if paperShard < 1 {
		paperShard = 1
	}
	pricingBatch := job.PricingBatch()
	localIters := (paperShard + pricingBatch - 1) / pricingBatch * k.localEpochs
	computeT := clu.StepTime(0, job.Spec, pricingBatch, cluster.CPU)
	aggT := s.AggTime(clu, job.Spec)
	upd := autoplan.UpdateSeconds(job.Spec)
	roundT := float64(localIters)*(computeT+upd) + aggT

	return tr, func() float64 {
		for soc := 0; soc < m; soc++ {
			meter.AddCompute(soc, float64(localIters)*computeT, cluster.CPU)
			meter.AddComm(soc, aggT)
		}
		res.Breakdown.Compute += float64(localIters) * computeT * float64(m)
		res.Breakdown.Sync += aggT * float64(m)
		res.Breakdown.Update += float64(localIters) * upd * float64(m)
		return roundT
	}, nil
}

// train creates one replica per client on its fixed shard; an epoch
// attempt is one federated round.
func (k fedTraining) train(job *Job) *training {
	clients := k.clients
	root := tensor.NewRNG(job.Seed)
	ref := job.BuildModel(root)
	var shards []*dataset.Dataset
	if k.alpha > 0 {
		shards = job.Train.ShardDirichlet(clients, k.alpha, job.Seed+1)
	} else {
		shards = job.Train.ShardIID(clients, job.Seed+1)
	}
	reps := make([]*replica, clients)
	sets := make([][]*tensor.Tensor, clients)
	states := make([][]*tensor.Tensor, clients)
	weights := make([]float64, clients)
	for c := range reps {
		reps[c] = newReplica(job, root.Split(uint64(c)+5), ref)
		sets[c] = reps[c].weights()
		states[c] = reps[c].state()
		weights[c] = float64(shards[c].Len())
	}

	// Client batch: FL clients use their own mini-batch, bounded by the
	// shard. We reuse the job's global batch as the local batch, the
	// configuration the paper's IID FedAvg baseline uses.
	clientBatch := job.GlobalBatch

	return &training{reps: reps, attempt: func(ctx context.Context, round int) int {
		// Federated clients are independent within a round — each owns
		// its model, optimizer, and shard — exactly as they run in
		// parallel on the real fleet. Every round's batch order is seeded
		// from (round, client) alone. Aggregation below stays in fixed
		// client order, so results are identical at any parallelism.
		job.fanOut(clients, func(c int) {
			it := dataset.NewBatchIterator(shards[c], min(clientBatch, shards[c].Len()), job.Seed+uint64(1000*round+c))
			steps := it.BatchesPerEpoch() * k.localEpochs
			for i := 0; i < steps; i++ {
				if ctx.Err() != nil {
					return
				}
				reps[c].step(it.Next())
			}
		})
		if ctx.Err() != nil {
			return 0
		}

		// Server-side weighted model averaging (FedAvg).
		collective.WeightedAverageInPlace(sets, weights)
		collective.AverageInPlace(states)
		return 0
	}}
}
