package socflow

import (
	"context"
	"reflect"
	"testing"
)

// The repo benchmark's mesh-dp and mesh-pipeline workloads hash these
// runs' accuracies into their result_digest. The bit-identity tests
// (elastic ≡ plain, mesh ≡ core) compare two live paths, so a change
// shared by both sides passes them; pinning the facade's output here
// makes a moved mesh result a tier-1 failure instead of a benchmark
// surprise. The configs are the benchmark's --smoke workloads at seed 1,
// on the in-process mesh (bit-identical to loopback TCP).
func TestMeshTracksArePinned(t *testing.T) {
	for _, want := range []struct {
		name     string
		cfg      DistributedConfig
		acc      []float64
		topology [][]int
	}{
		{
			name: "mesh-dp",
			cfg: DistributedConfig{
				JobSpec: JobSpec{Model: "lenet5", Dataset: "fmnist", Seed: 1, Epochs: 2, TrainSamples: 640},
				NumSoCs: 8, Groups: 2, InProcess: true,
			},
			acc:      []float64{0x1.9p-02, 0x1.94p-01},
			topology: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}},
		},
		{
			name: "mesh-pipeline",
			cfg: DistributedConfig{
				JobSpec: JobSpec{Model: "resnet34", Dataset: "cifar10", Seed: 1, Epochs: 2, TrainSamples: 128},
				NumSoCs: 8, Groups: 2, InProcess: true, Parallelism: "pipeline",
			},
			acc:      []float64{0x1.6p-04, 0x1.4p-04},
			topology: [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}},
		},
	} {
		rep, err := RunDistributed(context.Background(), want.cfg)
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if !reflect.DeepEqual(rep.EpochAccuracies, want.acc) || !reflect.DeepEqual(rep.Topology, want.topology) {
			t.Errorf("%s: accuracies %x topology %v, want %x %v", want.name, rep.EpochAccuracies, rep.Topology, want.acc, want.topology)
		}
	}
}
