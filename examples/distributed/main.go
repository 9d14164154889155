// Distributed: run SoCFlow's actual wire protocol — one goroutine per
// SoC, chunked Ring-AllReduce inside logical groups, a leader ring
// across groups — over real loopback TCP connections, exactly as the
// paper's prototype runs it over the SoC-Cluster's network.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/plan"
	"socflow/internal/runtime"
	"socflow/internal/transport"
)

func main() {
	const (
		numSoCs = 10
		groups  = 2
		batch   = 20
	)
	// Plan the topology the way the global scheduler would.
	mapping := plan.IntegrityGreedyMap(plan.AllNodes(numSoCs), groups, cluster.SoCsPerPCBDefault)
	fmt.Printf("topology: %d SoCs in %d logical groups: %v\n", numSoCs, groups, mapping.Groups)

	// A real TCP mesh on loopback: one connection per SoC pair.
	mesh, err := transport.NewTCPMesh(numSoCs)
	if err != nil {
		log.Fatal(err)
	}
	defer mesh.Close()

	prof := dataset.MustProfile("fmnist")
	pool := prof.Generate(dataset.GenOptions{Samples: 700, Seed: 8})
	train, val := pool.Split(0.85)

	start := time.Now()
	res, err := runtime.RunDistributed(context.Background(), mesh, nn.MustSpec("lenet5"), train, val, runtime.DistConfig{
		JobSpec: core.JobSpec{Epochs: 8, GlobalBatch: batch, LR: 0.03, Momentum: 0.9, Seed: 8},
		Plan:    &plan.Plan{NumSoCs: numSoCs, Mode: plan.ModeData, Placement: mapping.Groups, Batch: batch},
	})
	if err != nil {
		log.Fatal(err)
	}

	for e, acc := range res.EpochAccuracies {
		fmt.Printf("  epoch %d  val-acc %5.1f%%\n", e+1, 100*acc)
	}
	fmt.Printf("\n%d workers, %d TCP links, wall time %v\n",
		numSoCs, numSoCs*(numSoCs-1)/2, time.Since(start).Round(time.Millisecond))
	fmt.Println("every gradient travelled the ring; every epoch the group leaders")
	fmt.Println("aggregated weights and shards reshuffled across groups (§3.1).")
}
