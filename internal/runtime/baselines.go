package runtime

import (
	"context"
	"fmt"
	"sync"

	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// PSConfig configures the distributed parameter-server baseline:
// every worker computes gradients on its slice of the global batch and
// exchanges them with the server every iteration. The functional
// result is synchronous SGD — the same math the lifted baseline
// computes — produced by the actual push/pull protocol.
type PSConfig struct {
	// Workers lists the node IDs acting as data-parallel workers.
	Workers []int
	// Server is the node hosting parameter aggregation (it may also be
	// a worker).
	Server int
	// Epochs, GlobalBatch, LR, Momentum, Seed as usual.
	Epochs      int
	GlobalBatch int
	LR          float32
	Momentum    float32
	Seed        uint64
}

// RunPS trains with per-batch parameter-server gradient aggregation
// over the mesh.
func RunPS(mesh transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset, cfg PSConfig) (*DistResult, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("runtime: no PS workers")
	}
	if cfg.Epochs <= 0 || cfg.GlobalBatch <= 0 {
		return nil, fmt.Errorf("runtime: epochs=%d batch=%d", cfg.Epochs, cfg.GlobalBatch)
	}
	serverIsWorker := rankOf(cfg.Server, cfg.Workers) >= 0
	if !serverIsWorker {
		return nil, fmt.Errorf("runtime: the server must be one of the workers (it aggregates its own gradient too)")
	}

	return runBaseline(mesh, "ps worker", cfg.Workers, func(node transport.Node, res *DistResult, resMu *sync.Mutex) error {
		return runPSWorker(node, spec, train, val, cfg, res, resMu)
	})
}

// runBaseline runs one baseline worker per listed node on the shared
// pool, handing each the run's result and its lock. The baseline entry
// points take no context.
func runBaseline(mesh transport.Mesh, prefix string, ids []int,
	work func(node transport.Node, res *DistResult, resMu *sync.Mutex) error) (*DistResult, error) {

	res := &DistResult{}
	var resMu sync.Mutex
	p := newPool(nil, prefix, func() { mesh.Close() }, func(id int) error { return work(mesh.Node(id), res, &resMu) })
	for _, id := range ids {
		p.launch(id)
	}
	if err := p.wait(context.TODO()); err != nil {
		return nil, err
	}
	return res, nil
}

func runPSWorker(node transport.Node, spec *nn.Spec, train, val *dataset.Dataset, cfg PSConfig,
	res *DistResult, resMu *sync.Mutex) error {

	rank := rankOf(node.ID(), cfg.Workers)
	isServer := node.ID() == cfg.Server

	model := spec.BuildMicro(tensor.NewRNG(cfg.Seed), train.Channels(), train.ImageSize(), train.Classes)
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, 0)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		it := dataset.NewBatchIterator(train, cfg.GlobalBatch, cfg.Seed+uint64(100+epoch))
		for i := 0; i < it.BatchesPerEpoch(); i++ {
			x, labels := it.Next()
			n := x.Shape[0]
			lo := rank * n / len(cfg.Workers)
			hi := (rank + 1) * n / len(cfg.Workers)
			model.ZeroGrad()
			if hi > lo {
				xm := tensor.Rows(x, lo, hi)
				logits := model.Forward(xm, true)
				_, g := nn.SoftmaxCrossEntropy(logits, labels[lo:hi])
				model.Backward(g)
				scale := float32(hi-lo) * float32(len(cfg.Workers)) / float32(n)
				for _, gr := range model.Grads() {
					tensor.Scale(scale, gr)
				}
			}
			flat := flatten(model.Grads())
			if err := PSRound(node, cfg.Workers, cfg.Server, flat); err != nil {
				return err
			}
			unflatten(flat, model.Grads())
			opt.Step(model.Params())
		}
		if isServer {
			acc := accuracyOn(model, val)
			resMu.Lock()
			res.EpochAccuracies = append(res.EpochAccuracies, acc)
			resMu.Unlock()
		}
	}
	if isServer {
		resMu.Lock()
		res.Final = model
		resMu.Unlock()
	}
	return nil
}

// FedConfig configures the distributed FedAvg baseline.
type FedConfig struct {
	// Clients lists the participating node IDs; Server aggregates.
	Clients []int
	Server  int
	// Rounds of (local epoch + aggregation).
	Rounds      int
	ClientBatch int
	LR          float32
	Momentum    float32
	Seed        uint64
	// DirichletAlpha > 0 shards the clients non-IID.
	DirichletAlpha float64
}

// RunFed trains with the FedAvg protocol over the mesh: each client
// runs one local epoch on its fixed shard per round, then the server
// averages the models via PS-style push/pull of weights.
func RunFed(mesh transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset, cfg FedConfig) (*DistResult, error) {
	if len(cfg.Clients) == 0 || cfg.Rounds <= 0 || cfg.ClientBatch <= 0 {
		return nil, fmt.Errorf("runtime: bad fed config %+v", cfg)
	}
	if rankOf(cfg.Server, cfg.Clients) < 0 {
		return nil, fmt.Errorf("runtime: the server must be one of the clients")
	}
	return runBaseline(mesh, "fed client", cfg.Clients, func(node transport.Node, res *DistResult, resMu *sync.Mutex) error {
		return runFedClient(node, spec, train, val, cfg, res, resMu)
	})
}

func runFedClient(node transport.Node, spec *nn.Spec, train, val *dataset.Dataset, cfg FedConfig,
	res *DistResult, resMu *sync.Mutex) error {

	rank := rankOf(node.ID(), cfg.Clients)
	isServer := node.ID() == cfg.Server

	var shards []*dataset.Dataset
	if cfg.DirichletAlpha > 0 {
		shards = train.ShardDirichlet(len(cfg.Clients), cfg.DirichletAlpha, cfg.Seed+1)
	} else {
		shards = train.ShardIID(len(cfg.Clients), cfg.Seed+1)
	}
	shard := shards[rank]

	model := spec.BuildMicro(tensor.NewRNG(cfg.Seed), train.Channels(), train.ImageSize(), train.Classes)
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	batch := cfg.ClientBatch
	if batch > shard.Len() {
		batch = shard.Len()
	}

	for round := 0; round < cfg.Rounds; round++ {
		it := dataset.NewBatchIterator(shard, batch, cfg.Seed+uint64(10*round)+uint64(rank))
		for i := 0; i < it.BatchesPerEpoch(); i++ {
			x, labels := it.Next()
			model.ZeroGrad()
			logits := model.Forward(x, true)
			_, g := nn.SoftmaxCrossEntropy(logits, labels)
			model.Backward(g)
			opt.Step(model.Params())
		}
		// Model averaging round (weights + BN state), uniform weights:
		// IID shards are near-equal; the lifted FedSGD runner implements
		// the sample-count weighting.
		syncSet := append(model.Weights(), model.StateTensors()...)
		flat := flatten(syncSet)
		if err := PSRound(node, cfg.Clients, cfg.Server, flat); err != nil {
			return err
		}
		unflatten(flat, syncSet)

		if isServer {
			acc := accuracyOn(model, val)
			resMu.Lock()
			res.EpochAccuracies = append(res.EpochAccuracies, acc)
			resMu.Unlock()
		}
	}
	if isServer {
		resMu.Lock()
		res.Final = model
		resMu.Unlock()
	}
	return nil
}
