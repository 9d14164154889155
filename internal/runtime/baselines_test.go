package runtime

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

func fmnistSplit(t *testing.T, n int, seed uint64) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	pool := dataset.MustProfile("fmnist").Generate(dataset.GenOptions{Samples: n + n/4, Seed: seed})
	return pool.Split(float64(n) / float64(pool.Len()))
}

func TestRunPSMatchesSingleModelSGD(t *testing.T) {
	// Distributed PS with equal worker slices is synchronous SGD; it
	// must track a serial single-model run on the same batch schedule.
	train, val := fmnistSplit(t, 160, 3)
	spec := nn.MustSpec("vgg11") // no batch norm: exact equivalence
	cfg := PSConfig{Workers: []int{0, 1, 2, 3}, Server: 0, Epochs: 2, GlobalBatch: 16, LR: 0.02, Momentum: 0.9, Seed: 5}

	res, err := RunPS(transport.NewChanMesh(4), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference with the identical schedule.
	model := spec.BuildMicro(tensor.NewRNG(cfg.Seed), train.Channels(), train.ImageSize(), train.Classes)
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		it := dataset.NewBatchIterator(train, cfg.GlobalBatch, cfg.Seed+uint64(100+epoch))
		for i := 0; i < it.BatchesPerEpoch(); i++ {
			x, labels := it.Next()
			model.ZeroGrad()
			logits := model.Forward(x, true)
			_, g := nn.SoftmaxCrossEntropy(logits, labels)
			model.Backward(g)
			opt.Step(model.Params())
		}
	}

	dw, rw := res.Final.Weights(), model.Weights()
	for ti := range dw {
		for j := range dw[ti].Data {
			if d := math.Abs(float64(dw[ti].Data[j] - rw[ti].Data[j])); d > 1e-3 {
				t.Fatalf("PS diverged from serial SGD: tensor %d[%d] diff %v", ti, j, d)
			}
		}
	}
}

func TestRunPSValidation(t *testing.T) {
	train, val := fmnistSplit(t, 60, 3)
	spec := nn.MustSpec("lenet5")
	mesh := transport.NewChanMesh(3)
	bad := []PSConfig{
		{},
		{Workers: []int{0, 1}, Server: 2, Epochs: 1, GlobalBatch: 8}, // server not a worker
		{Workers: []int{0, 1}, Server: 0, Epochs: 0, GlobalBatch: 8},
	}
	for i, cfg := range bad {
		cfg.LR = 0.01
		if _, err := RunPS(mesh, spec, train, val, cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestRunFedTrainsAndReflectsSkew(t *testing.T) {
	pool := dataset.MustProfile("cifar10").Generate(dataset.GenOptions{Samples: 500, Seed: 11})
	train, val := pool.Split(0.8)
	spec := nn.MustSpec("vgg11")
	base := FedConfig{Clients: []int{0, 1, 2, 3}, Server: 0, Rounds: 8, ClientBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 9}

	iid, err := RunFed(transport.NewChanMesh(4), spec, train, val, base)
	if err != nil {
		t.Fatal(err)
	}
	skew := base
	skew.DirichletAlpha = 0.1
	non, err := RunFed(transport.NewChanMesh(4), spec, train, val, skew)
	if err != nil {
		t.Fatal(err)
	}
	bestOf := func(r *DistResult) float64 {
		b := 0.0
		for _, a := range r.EpochAccuracies {
			if a > b {
				b = a
			}
		}
		return b
	}
	if bestOf(iid) < 0.5 {
		t.Fatalf("IID FedAvg failed to learn: %v", bestOf(iid))
	}
	if bestOf(non) >= bestOf(iid) {
		t.Fatalf("heavy skew should hurt FedAvg: iid %v vs non-iid %v", bestOf(iid), bestOf(non))
	}
}

func TestRunMixedDistributedTrains(t *testing.T) {
	pool := dataset.MustProfile("celeba").Generate(dataset.GenOptions{Samples: 360, Seed: 13})
	train, val := pool.Split(0.8)
	spec := nn.MustSpec("lenet5")
	cfg := MixedDistConfig{
		DistConfig: DistConfig{
			JobSpec: core.JobSpec{Epochs: 6, GlobalBatch: 24, LR: 0.03, Momentum: 0.9, Seed: 4},
			Groups:  [][]int{{0, 1}, {2, 3}},
		},
		Beta: 0.75,
	}
	res, err := RunMixedDistributed(context.Background(), transport.NewChanMesh(4), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, a := range res.EpochAccuracies {
		if a > best {
			best = a
		}
	}
	if best < 0.8 {
		t.Fatalf("mixed distributed training reached only %v", best)
	}
}

func TestRunMixedDistributedValidation(t *testing.T) {
	train, val := fmnistSplit(t, 60, 3)
	spec := nn.MustSpec("lenet5")
	mesh := transport.NewChanMesh(2)
	if _, err := RunMixedDistributed(context.Background(), mesh, spec, train, val, MixedDistConfig{
		DistConfig: DistConfig{JobSpec: core.JobSpec{Epochs: 1, GlobalBatch: 8, LR: 0.01}, Groups: [][]int{{0, 1}}},
		Beta:       0, // invalid
	}); err == nil {
		t.Fatal("beta 0 must be rejected")
	}
}

// brokenMesh gives one node an endpoint whose every Send fails.
type brokenMesh struct {
	transport.Mesh
	bad int
}

func (m brokenMesh) Node(i int) transport.Node {
	if i != m.bad {
		return m.Mesh.Node(i)
	}
	return brokenNode{m.Mesh.Node(i)}
}

type brokenNode struct{ transport.Node }

func (brokenNode) Send(int, []byte) error { return errors.New("link down") }

// A worker's transport error must tear the mesh down on every baseline
// entry point — its peers are blocked in Recv on it — and come back
// promptly as a joined error naming the failed worker and the peers
// the teardown unwound.
func TestBaselinesTearDownOnWorkerError(t *testing.T) {
	train, val := fmnistSplit(t, 60, 3)
	spec := nn.MustSpec("lenet5")
	const bad = 3
	for _, tc := range []struct {
		name string
		run  func(mesh transport.Mesh) error
	}{
		{"ps worker", func(mesh transport.Mesh) error {
			_, err := RunPS(mesh, spec, train, val, PSConfig{
				Workers: []int{0, 1, 2, 3}, Server: 0, Epochs: 2, GlobalBatch: 16, LR: 0.02, Seed: 5})
			return err
		}},
		{"fed client", func(mesh transport.Mesh) error {
			_, err := RunFed(mesh, spec, train, val, FedConfig{
				Clients: []int{0, 1, 2, 3}, Server: 0, Rounds: 2, ClientBatch: 8, LR: 0.02, Seed: 5})
			return err
		}},
		{"mixed worker", func(mesh transport.Mesh) error {
			_, err := RunMixedDistributed(context.Background(), mesh, spec, train, val, MixedDistConfig{
				DistConfig: DistConfig{
					JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: 16, LR: 0.02, Seed: 5},
					Groups:  [][]int{{0, 1}, {2, 3}},
				},
				Beta: 0.75,
			})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() { done <- tc.run(brokenMesh{transport.NewChanMesh(4), bad}) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.name+" 3: link down") {
					t.Fatalf("error must name the failed worker: %v", err)
				}
				joined, ok := err.(interface{ Unwrap() []error })
				if !ok || len(joined.Unwrap()) < 2 {
					t.Fatalf("error must join the failed worker's with its unwound peers': %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("peers of the failed worker were left blocked in Recv")
			}
		})
	}
}
