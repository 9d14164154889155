package runtime

import (
	"context"
	"fmt"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// MixedDistConfig configures a distributed run where every SoC worker
// hosts the paper's full on-chip stack: an FP32 replica on the CPU and
// an INT8 replica on the NPU, batch-split by the α/β controller, with
// Eq. 5 merges at epoch boundaries before cross-SoC synchronization —
// the complete §3 system running as real concurrent workers.
type MixedDistConfig struct {
	DistConfig
	// Beta is the profiled compute-power ratio fed to every worker's
	// controller.
	Beta float64
	// ProbeBatch sizes the α validation probe (default 32).
	ProbeBatch int
}

// RunMixedDistributed executes the mixed-precision group-wise protocol
// with one goroutine per SoC. Within a group, workers SSGD-average the
// *FP32-side* gradients per batch while each worker's NPU replica
// trains its share locally; at epoch end each worker merges its pair
// (Eq. 5), groups aggregate through the leader ring, and data
// reshuffles across groups.
func RunMixedDistributed(ctx context.Context, mesh transport.Mesh, spec *nn.Spec, train, val *dataset.Dataset, cfg MixedDistConfig) (*DistResult, error) {
	if cfg.ProbeBatch == 0 {
		cfg.ProbeBatch = 32
	}
	if cfg.Beta <= 0 || cfg.Beta >= 1 {
		return nil, fmt.Errorf("runtime: beta %v out of (0,1)", cfg.Beta)
	}
	if cfg.Metrics != nil {
		mesh = transport.WithMetrics(mesh, cfg.Metrics)
	}
	numNodes := mesh.Size()
	nodeGroup := make([]int, numNodes)
	for i := range nodeGroup {
		nodeGroup[i] = -1
	}
	leaders := make([]int, len(cfg.Groups))
	for g, members := range cfg.Groups {
		if len(members) == 0 {
			return nil, fmt.Errorf("runtime: empty group %d", g)
		}
		leaders[g] = members[0]
		for _, m := range members {
			if m < 0 || m >= numNodes || nodeGroup[m] != -1 {
				return nil, fmt.Errorf("runtime: bad member %d", m)
			}
			nodeGroup[m] = g
		}
	}
	if cfg.Epochs <= 0 || cfg.GlobalBatch <= 0 {
		return nil, fmt.Errorf("runtime: epochs=%d batch=%d", cfg.Epochs, cfg.GlobalBatch)
	}

	rep := newReporter(&cfg.DistConfig, val)
	p := newPool(cfg.Metrics, "mixed worker", func() { mesh.Close() }, func(id int) error {
		return runMixedWorker(mesh.Node(id), spec, train, val, cfg, nodeGroup[id], leaders, rep)
	})
	for id, g := range nodeGroup {
		if g >= 0 {
			p.launch(id)
		}
	}
	if err := p.wait(ctx); err != nil {
		return nil, err
	}
	return rep.res, nil
}

func runMixedWorker(node transport.Node, spec *nn.Spec, train, val *dataset.Dataset, cfg MixedDistConfig,
	group int, leaders []int, rep *reporter) error {

	members := cfg.Groups[group]
	rank := rankOf(node.ID(), members)
	isGroupLeader := rank == 0
	isGlobalLeader := isGroupLeader && group == 0

	build := func() *nn.Sequential {
		return spec.BuildMicro(tensor.NewRNG(cfg.Seed), train.Channels(), train.ImageSize(), train.Classes)
	}
	ref := build()
	// Worker-private RNG stream for INT8 stochastic rounding; the FP32
	// side stays bit-identical across members, which is what the
	// gradient all-reduce requires.
	mp := core.NewMixedPrecision(ref, build, cfg.LR, cfg.Momentum, cfg.Beta, tensor.NewRNG(cfg.Seed).Split(uint64(node.ID())+50))

	shards := train.ShardIID(len(cfg.Groups), cfg.Seed+1)
	perMember := cfg.GlobalBatch / len(members)
	if perMember < 1 {
		perMember = 1
	}

	// Flat exchange buffers, reused across iterations and epochs.
	var wFlat, syncFlat []float32

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shard := shards[group]
		it := dataset.NewBatchIterator(shard, perMember*len(members), cfg.Seed+uint64(100+epoch))
		for i := 0; i < it.BatchesPerEpoch(); i++ {
			x, labels := it.Next()
			n := x.Shape[0]
			lo := rank * n / len(members)
			hi := (rank + 1) * n / len(members)
			if hi > lo {
				xm := tensor.Rows(x, lo, hi)
				mp.Step(xm, labels[lo:hi])
			}
			// Intra-group sync of the FP32 weights: each member's CPU
			// replica took a different SGD step; ring-average them (the
			// weight-space equivalent of gradient SSGD at equal LR).
			wFlat = flattenInto(wFlat, mp.FP32.Weights())
			flat := wFlat
			if err := RingAllReduceAverage(node, members, flat); err != nil {
				return err
			}
			unflatten(flat, mp.FP32.Weights())
		}

		// On-chip Eq. 5 merge (α refresh + blend), then delayed
		// aggregation across groups.
		mp.EndEpoch(val, cfg.ProbeBatch)
		syncSet := append(mp.Weights(), mp.FP32.StateTensors()...)
		syncFlat = flattenInto(syncFlat, syncSet)
		flat := syncFlat
		if isGroupLeader {
			if err := RingAllReduceAverage(node, leaders, flat); err != nil {
				return err
			}
		}
		if err := Broadcast(node, members, members[0], flat); err != nil {
			return err
		}
		unflatten(flat, syncSet)
		mp.AdoptMerged()

		shards = dataset.Reshuffle(shards, cfg.Seed+uint64(1000+epoch))

		if isGlobalLeader {
			if err := rep.epochEnd(epoch, mp.FP32); err != nil {
				return err
			}
		}
	}
	return nil
}
