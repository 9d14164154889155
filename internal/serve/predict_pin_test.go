package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"socflow/internal/cluster"
	"socflow/internal/dataset"
	"socflow/internal/nn"
	"socflow/internal/tensor"
)

// TestEnginePredictionsArePinned pins the serving forward itself: the
// bits of Engine.Predict's logits and its predictions, for an engine
// built the way Client.Serve builds one (seed-1 micro model, the
// seed-1 256-sample dataset, 2 stages on a 32-SoC sd865 cluster). The
// serve-replay pin covers only simulated-clock numbers, so without this
// a change to the eval forward could move every served answer
// unnoticed. Batches 1–8 walk the dataset in order, then the sizes
// repeat downwards over a second window, so the model's buffers both
// grow and shrink between calls. resnet18 adds the eval batch-norm
// epilogue and the residual blocks.
func TestEnginePredictionsArePinned(t *testing.T) {
	want := map[string]string{
		"vgg11":    "8b8b8d74f351ea3bd0713637e71672cf7d5195e0b3a4215b0fc760d078a34fdf",
		"resnet18": "36203483ec81860900228a3455d22b14ca283f0abab2d3c437113e0414ffefec",
	}
	for model, digest := range want {
		t.Run(model, func(t *testing.T) {
			if got := predictDigest(t, model); got != digest {
				t.Errorf("%s serving forward digest %s, pinned %s", model, got, digest)
			}
		})
	}
}

// predictDigest runs the pinned batch sequence through a seed-1 engine
// for model on cifar10 and hashes every logit's bits and every
// prediction.
func predictDigest(t *testing.T, model string) string {
	t.Helper()
	spec, err := nn.GetSpec(model)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := dataset.GetProfile("cifar10")
	if err != nil {
		t.Fatal(err)
	}
	ds := prof.Generate(dataset.GenOptions{Samples: 256, Seed: 1})
	m := spec.BuildMicro(tensor.NewRNG(1), ds.Channels(), ds.ImageSize(), ds.Classes)
	scale := float64(prof.PaperSize*prof.PaperSize) / float64(ds.ImageSize()*ds.ImageSize())
	e, err := NewEngine(EngineConfig{
		Spec: spec, Model: m, Cluster: cluster.New(cluster.Config{NumSoCs: 32, Generation: cluster.Gen865}),
		Stages: 2, InC: ds.Channels(), ImgSize: ds.ImageSize(), ActivationScale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1}
	h := sha256.New()
	var word [4]byte
	var x *tensor.Tensor
	off := 0
	for _, b := range sizes {
		idx := make([]int, b)
		for i := range idx {
			idx[i] = (off + i) % ds.Len()
		}
		off += b
		x, _ = ds.BatchInto(x, nil, idx)
		logits := e.Model.Forward(x, false)
		for _, v := range logits.Data {
			binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
			h.Write(word[:])
		}
		wantPreds := tensor.ArgmaxRowsInto(nil, logits)
		preds := e.Predict(x)
		for i, p := range preds {
			if p != wantPreds[i] {
				t.Fatalf("batch %d: Predict %v, argmax of the forward's logits %v", b, preds, wantPreds)
			}
			binary.LittleEndian.PutUint32(word[:], uint32(p))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
