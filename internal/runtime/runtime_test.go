package runtime

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"socflow/internal/core"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	autoplan "socflow/internal/plan"
	"socflow/internal/tensor"
	"socflow/internal/transport"
)

// runOnMesh executes f concurrently on every node and fails the test
// on any error.
func runOnMesh(t *testing.T, mesh transport.Mesh, f func(node transport.Node) error) {
	t.Helper()
	errs := make(chan error, mesh.Size())
	done := make(chan struct{}, mesh.Size())
	for i := 0; i < mesh.Size(); i++ {
		go func(i int) {
			if err := f(mesh.Node(i)); err != nil {
				errs <- err
			}
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < mesh.Size(); i++ {
		<-done
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func meshes(t *testing.T, n int) map[string]transport.Mesh {
	t.Helper()
	tcp, err := transport.NewTCPMesh(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tcp.Close() })
	return map[string]transport.Mesh{
		"chan": transport.NewChanMesh(n),
		"tcp":  tcp,
	}
}

func TestRingAllReduceAverageMatchesSerial(t *testing.T) {
	const n = 5
	const dim = 103 // not divisible by n: exercises ragged chunks
	for name, mesh := range meshes(t, n) {
		name, mesh := name, mesh
		t.Run(name, func(t *testing.T) {
			r := tensor.NewRNG(7)
			inputs := make([][]float32, n)
			want := make([]float64, dim)
			for i := range inputs {
				inputs[i] = make([]float32, dim)
				for j := range inputs[i] {
					inputs[i][j] = r.Normal()
					want[j] += float64(inputs[i][j]) / n
				}
			}
			members := []int{0, 1, 2, 3, 4}
			runOnMesh(t, mesh, func(node transport.Node) error {
				return RingAllReduceAverage(node, members, inputs[node.ID()])
			})
			for i := range inputs {
				for j := range inputs[i] {
					if math.Abs(float64(inputs[i][j])-want[j]) > 1e-4 {
						t.Fatalf("node %d elem %d: %v want %v", i, j, inputs[i][j], want[j])
					}
				}
			}
		})
	}
}

func TestRingAllReduceSubsetOfMesh(t *testing.T) {
	// Only nodes 1..3 of a 5-node mesh participate.
	mesh := transport.NewChanMesh(5)
	members := []int{1, 2, 3}
	vals := map[int][]float32{1: {3}, 2: {6}, 3: {9}}
	errs := make(chan error, 3)
	done := make(chan struct{}, 3)
	for _, id := range members {
		go func(id int) {
			errs <- RingAllReduceAverage(mesh.Node(id), members, vals[id])
			done <- struct{}{}
		}(id)
	}
	for range members {
		<-done
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range members {
		if vals[id][0] != 6 {
			t.Fatalf("node %d got %v, want 6", id, vals[id][0])
		}
	}
}

func TestRingAllReduceSingleMemberNoOp(t *testing.T) {
	mesh := transport.NewChanMesh(2)
	v := []float32{42}
	if err := RingAllReduceAverage(mesh.Node(0), []int{0}, v); err != nil {
		t.Fatal(err)
	}
	if v[0] != 42 {
		t.Fatal("single-member all-reduce must be a no-op")
	}
}

func TestRingAllReduceRejectsOutsider(t *testing.T) {
	mesh := transport.NewChanMesh(3)
	if err := RingAllReduceAverage(mesh.Node(2), []int{0, 1}, []float32{1}); err == nil {
		t.Fatal("non-member must be rejected")
	}
}

// Property: ring all-reduce equals the serial mean for random sizes
// and member counts (channel mesh for speed).
func TestRingAllReduceProperty(t *testing.T) {
	root := tensor.NewRNG(17)
	f := func(seed uint64) bool {
		r := root.Split(seed)
		n := 2 + r.Intn(6)
		dim := 1 + r.Intn(64)
		mesh := transport.NewChanMesh(n)
		members := make([]int, n)
		inputs := make([][]float32, n)
		want := make([]float64, dim)
		for i := range members {
			members[i] = i
			inputs[i] = make([]float32, dim)
			for j := range inputs[i] {
				inputs[i][j] = r.Normal()
				want[j] += float64(inputs[i][j]) / float64(n)
			}
		}
		done := make(chan error, n)
		for i := 0; i < n; i++ {
			go func(i int) {
				done <- RingAllReduceAverage(mesh.Node(i), members, inputs[i])
			}(i)
		}
		for i := 0; i < n; i++ {
			if err := <-done; err != nil {
				return false
			}
		}
		for i := range inputs {
			for j := range inputs[i] {
				if math.Abs(float64(inputs[i][j])-want[j]) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastDelivers(t *testing.T) {
	for name, mesh := range meshes(t, 3) {
		name, mesh := name, mesh
		t.Run(name, func(t *testing.T) {
			vals := [][]float32{{7, 7}, {0, 0}, {0, 0}}
			members := []int{0, 1, 2}
			runOnMesh(t, mesh, func(node transport.Node) error {
				return Broadcast(node, members, 0, vals[node.ID()])
			})
			for i := range vals {
				if vals[i][0] != 7 || vals[i][1] != 7 {
					t.Fatalf("node %d got %v", i, vals[i])
				}
			}
		})
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := tensor.NewRNG(5)
	ts := []*tensor.Tensor{
		tensor.RandNormal(r, 0, 1, 3, 4),
		tensor.RandNormal(r, 0, 1, 7),
	}
	back, err := transport.DecodeTensors(transport.EncodeTensors(ts))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !back[0].SameShape(ts[0]) || !back[1].SameShape(ts[1]) {
		t.Fatal("shapes lost")
	}
	for i := range ts {
		for j := range ts[i].Data {
			if ts[i].Data[j] != back[i].Data[j] {
				t.Fatal("data lost")
			}
		}
	}
	if _, err := transport.DecodeTensors([]byte{1, 2}); err == nil {
		t.Fatal("garbage must be rejected")
	}
	v := []float32{1.5, -2.5}
	got, err := transport.DecodeVector(transport.EncodeVector(v))
	if err != nil || got[0] != 1.5 || got[1] != -2.5 {
		t.Fatalf("vector codec broken: %v %v", got, err)
	}
}

// dataPlan is a hand-built data-mode plan: groups over a socs-node mesh
// at a group batch of batch.
func dataPlan(socs, batch int, groups [][]int) *autoplan.Plan {
	return &autoplan.Plan{NumSoCs: socs, Mode: autoplan.ModeData, Placement: groups, Batch: batch}
}

func TestRunDistributedTrains(t *testing.T) {
	prof := dataset.MustProfile("celeba")
	pool := prof.Generate(dataset.GenOptions{Samples: 360, Seed: 9})
	train, val := pool.Split(0.8)
	spec := nn.MustSpec("lenet5")

	mapping := autoplan.IntegrityGreedyMap(autoplan.AllNodes(8), 2, 5)
	mesh := transport.NewChanMesh(8)
	res, err := RunDistributed(context.Background(), mesh, spec, train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 6, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(8, 16, mapping.Groups),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochAccuracies) != 6 || res.Final == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	best := 0.0
	for _, a := range res.EpochAccuracies {
		if a > best {
			best = a
		}
	}
	if best < 0.8 {
		t.Fatalf("distributed training reached only %v on a separable task", best)
	}
}

func TestRunDistributedOverTCP(t *testing.T) {
	prof := dataset.MustProfile("celeba")
	pool := prof.Generate(dataset.GenOptions{Samples: 240, Seed: 9})
	train, val := pool.Split(0.8)
	spec := nn.MustSpec("lenet5")

	mesh, err := transport.NewTCPMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	res, err := RunDistributed(context.Background(), mesh, spec, train, val, DistConfig{
		JobSpec: core.JobSpec{Epochs: 4, GlobalBatch: 16, LR: 0.03, Momentum: 0.9, Seed: 4},
		Plan:    dataPlan(4, 16, [][]int{{0, 1}, {2, 3}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, a := range res.EpochAccuracies {
		if a > best {
			best = a
		}
	}
	if best < 0.75 {
		t.Fatalf("TCP-distributed training reached only %v", best)
	}
}

// The distributed protocol must be bit-compatible across transports:
// same config, same seeds — identical per-epoch accuracies.
func TestRunDistributedTransportAgnostic(t *testing.T) {
	prof := dataset.MustProfile("fmnist")
	pool := prof.Generate(dataset.GenOptions{Samples: 200, Seed: 2})
	train, val := pool.Split(0.8)
	spec := nn.MustSpec("lenet5")
	cfg := DistConfig{
		JobSpec: core.JobSpec{Epochs: 3, GlobalBatch: 12, LR: 0.03, Momentum: 0.9, Seed: 6},
		Plan:    dataPlan(3, 12, [][]int{{0, 1, 2}}),
	}

	chanRes, err := RunDistributed(context.Background(), transport.NewChanMesh(3), spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := transport.NewTCPMesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	tcpRes, err := RunDistributed(context.Background(), tcp, spec, train, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := range chanRes.EpochAccuracies {
		if chanRes.EpochAccuracies[e] != tcpRes.EpochAccuracies[e] {
			t.Fatalf("epoch %d: chan %v vs tcp %v", e, chanRes.EpochAccuracies[e], tcpRes.EpochAccuracies[e])
		}
	}
}

func TestRunDistributedValidation(t *testing.T) {
	prof := dataset.MustProfile("fmnist")
	pool := prof.Generate(dataset.GenOptions{Samples: 80, Seed: 2})
	train, val := pool.Split(0.8)
	spec := nn.MustSpec("lenet5")
	mesh := transport.NewChanMesh(4)
	bad := []DistConfig{
		{},
		{JobSpec: core.JobSpec{Epochs: 0, GlobalBatch: 8}, Plan: dataPlan(4, 8, [][]int{{0, 1}})},
		{JobSpec: core.JobSpec{Epochs: 1, GlobalBatch: 8}, Plan: dataPlan(4, 8, [][]int{{0, 9}})},
		{JobSpec: core.JobSpec{Epochs: 1, GlobalBatch: 8}, Plan: dataPlan(4, 8, [][]int{{0, 1}, {1, 2}})},
		{JobSpec: core.JobSpec{Epochs: 1, GlobalBatch: 8}, Plan: dataPlan(4, 8, [][]int{{}})},
		{JobSpec: core.JobSpec{Epochs: 1, GlobalBatch: 8}, Plan: dataPlan(8, 8, [][]int{{0, 1}})},
	}
	for i, cfg := range bad {
		cfg.LR = 0.01
		if _, err := RunDistributed(context.Background(), mesh, spec, train, val, cfg); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

// The final model must not depend on the transport: loopback TCP frames
// every message, ChanMesh hands the bytes over, and both must deliver
// the same bits. The data plan is mesh-dp's topology (two groups of
// four: a 4-member gradient ring, a 2-leader weight ring, a broadcast);
// the pipeline plan relays activations and gradients between stages.
func TestFinalWeightBitsMatchAcrossTransports(t *testing.T) {
	for _, tc := range []struct {
		name    string
		model   string
		samples int
		plan    *autoplan.Plan
	}{
		{"data", "lenet5", 320, dataPlan(8, 16, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})},
		{"pipeline", "resnet34", 80, pipelinePlan(t, 16, 2)},
	} {
		prof := dataset.MustProfile(map[string]string{"lenet5": "fmnist", "resnet34": "cifar10"}[tc.model])
		train, val := prof.Generate(dataset.GenOptions{Samples: tc.samples, Seed: 3}).Split(0.8)
		spec := nn.MustSpec(tc.model)
		cfg := DistConfig{
			JobSpec: core.JobSpec{Epochs: 2, GlobalBatch: tc.plan.Batch, LR: 0.03, Momentum: 0.9, Seed: 5},
			Plan:    tc.plan,
		}
		final := map[string]*nn.Sequential{}
		for name, mesh := range meshes(t, tc.plan.NumSoCs) {
			res, err := RunDistributed(context.Background(), mesh, spec, train, val, cfg)
			if err != nil {
				t.Fatalf("%s over %s: %v", tc.name, name, err)
			}
			final[name] = res.Final
		}
		got := append(final["tcp"].Weights(), final["tcp"].StateTensors()...)
		want := append(final["chan"].Weights(), final["chan"].StateTensors()...)
		for k := range want {
			for e, x := range want[k].Data {
				if y := got[k].Data[e]; math.Float32bits(x) != math.Float32bits(y) {
					t.Fatalf("%s: tensor %d element %d: tcp %x, chan %x", tc.name, k, e, y, x)
				}
			}
		}
	}
}
