package dataset

import (
	"reflect"
	"testing"
	"testing/quick"

	"socflow/internal/tensor"
)

func gen(t *testing.T, name string, n int) *Dataset {
	t.Helper()
	return MustProfile(name).Generate(GenOptions{Samples: n, Seed: 1})
}

func TestCatalogComplete(t *testing.T) {
	want := []string{"celeba", "cifar10", "cinic10", "emnist", "fmnist"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("catalog = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("catalog = %v, want %v", got, want)
		}
	}
	if _, err := GetProfile("imagenet"); err == nil {
		t.Fatal("unknown dataset must error")
	}
	for _, n := range got {
		p := MustProfile(n)
		if p.Classes <= 1 || p.Channels < 1 || p.PaperTrainN <= 0 || p.Difficulty <= 0 {
			t.Fatalf("profile %s nonsense: %+v", n, p)
		}
	}
}

func TestGenerateShapesAndBalance(t *testing.T) {
	d := gen(t, "cifar10", 100)
	if d.Len() != 100 || d.Channels() != 3 || d.ImageSize() != 8 || d.Classes != 10 {
		t.Fatalf("generated dataset: len=%d ch=%d size=%d classes=%d", d.Len(), d.Channels(), d.ImageSize(), d.Classes)
	}
	h := d.ClassHistogram()
	for c, n := range h {
		if n != 10 {
			t.Fatalf("class %d has %d samples, want 10 (balanced)", c, n)
		}
	}
	if d.X.HasNaN() {
		t.Fatal("generated NaN pixels")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustProfile("fmnist").Generate(GenOptions{Samples: 30, Seed: 7})
	b := MustProfile("fmnist").Generate(GenOptions{Samples: 30, Seed: 7})
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed must reproduce identical data")
		}
	}
	c := MustProfile("fmnist").Generate(GenOptions{Samples: 30, Seed: 8})
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateCustomSize(t *testing.T) {
	d := MustProfile("emnist").Generate(GenOptions{Samples: 47, ImageSize: 12, Seed: 3})
	if d.ImageSize() != 12 || d.Channels() != 1 || d.Classes != 47 {
		t.Fatalf("custom size dataset: %v", d.X.Shape)
	}
}

func TestBatchCopies(t *testing.T) {
	d := gen(t, "cifar10", 20)
	x, labels := d.Batch([]int{0, 5})
	if x.Shape[0] != 2 || len(labels) != 2 {
		t.Fatalf("batch shape %v labels %v", x.Shape, labels)
	}
	orig := d.X.Data[0]
	x.Data[0] = 999
	if d.X.Data[0] != orig {
		t.Fatal("Batch must copy, not alias")
	}
}

func TestSubsetAndSplit(t *testing.T) {
	d := gen(t, "fmnist", 50)
	tr, val := d.Split(0.8)
	if tr.Len() != 40 || val.Len() != 10 {
		t.Fatalf("split = %d/%d", tr.Len(), val.Len())
	}
	if tr.Classes != d.Classes {
		t.Fatal("split loses class count")
	}
}

func TestSplitRejectsBadFraction(t *testing.T) {
	d := gen(t, "fmnist", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("bad split fraction must panic")
		}
	}()
	d.Split(1.5)
}

func TestShardIIDPartition(t *testing.T) {
	d := gen(t, "cifar10", 100)
	shards := d.ShardIID(4, 9)
	total := 0
	for _, s := range shards {
		total += s.Len()
		if s.Len() < 20 || s.Len() > 30 {
			t.Fatalf("unbalanced shard: %d", s.Len())
		}
	}
	if total != 100 {
		t.Fatalf("shards cover %d samples, want 100", total)
	}
	// IID shards should each see most classes.
	for i, s := range shards {
		h := s.ClassHistogram()
		seen := 0
		for _, n := range h {
			if n > 0 {
				seen++
			}
		}
		if seen < 6 {
			t.Fatalf("shard %d sees only %d classes — not IID-like", i, seen)
		}
	}
}

func TestReshuffleRestoresIID(t *testing.T) {
	d := gen(t, "cifar10", 100)
	skewed := d.ShardDirichlet(5, 0.1, 3)
	fixed := Reshuffle(skewed, 11)
	if len(fixed) != 5 {
		t.Fatalf("reshuffle count = %d", len(fixed))
	}
	total := 0
	for _, s := range fixed {
		total += s.Len()
		h := s.ClassHistogram()
		seen := 0
		for _, n := range h {
			if n > 0 {
				seen++
			}
		}
		if seen < 6 {
			t.Fatalf("reshuffled shard sees only %d classes", seen)
		}
	}
	if total != 100 {
		t.Fatalf("reshuffle lost samples: %d", total)
	}
}

func TestMergeValidates(t *testing.T) {
	a := gen(t, "cifar10", 10)
	b := gen(t, "celeba", 10)
	defer func() {
		if recover() == nil {
			t.Fatal("merging different class counts must panic")
		}
	}()
	Merge(a, b)
}

func TestBatchIteratorCoversEpoch(t *testing.T) {
	d := gen(t, "fmnist", 25)
	it := NewBatchIterator(d, 10, 5)
	if it.BatchesPerEpoch() != 3 {
		t.Fatalf("BatchesPerEpoch = %d, want 3", it.BatchesPerEpoch())
	}
	seen := 0
	sizes := []int{}
	for i := 0; i < 3; i++ {
		x, labels := it.Next()
		if x.Shape[0] != len(labels) {
			t.Fatal("batch/label mismatch")
		}
		seen += len(labels)
		sizes = append(sizes, len(labels))
	}
	if seen != 25 {
		t.Fatalf("epoch covered %d samples, want 25", seen)
	}
	if sizes[2] != 5 {
		t.Fatalf("last batch size = %d, want 5", sizes[2])
	}
	if it.Epoch() != 0 {
		t.Fatalf("epoch counter = %d before wrap", it.Epoch())
	}
	it.Next()
	if it.Epoch() != 1 {
		t.Fatalf("epoch counter = %d after wrap, want 1", it.Epoch())
	}
}

// Property: ShardIID partitions exactly — every sample appears in
// exactly one shard, for any shard count.
func TestShardIIDPartitionProperty(t *testing.T) {
	d := gen(t, "emnist", 94)
	f := func(seed uint64) bool {
		n := 1 + int(seed%7)
		shards := d.ShardIID(n, seed)
		total := 0
		for _, s := range shards {
			total += s.Len()
		}
		return total == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Synthetic data must be genuinely learnable: nearest-prototype
// accuracy far above chance. (Full model-training integration lives in
// the engine tests.)
func TestSyntheticDataIsLearnable(t *testing.T) {
	d := MustProfile("celeba").Generate(GenOptions{Samples: 200, Seed: 13})
	// Compute per-class mean images from the first half, classify the
	// second half by nearest mean.
	tr, te := d.Split(0.5)
	stride := d.Channels() * d.ImageSize() * d.ImageSize()
	means := make([]*tensor.Tensor, d.Classes)
	counts := make([]int, d.Classes)
	for c := range means {
		means[c] = tensor.New(stride)
	}
	for i := 0; i < tr.Len(); i++ {
		c := tr.Labels[i]
		counts[c]++
		for j := 0; j < stride; j++ {
			means[c].Data[j] += tr.X.Data[i*stride+j]
		}
	}
	for c := range means {
		if counts[c] > 0 {
			tensor.Scale(1/float32(counts[c]), means[c])
		}
	}
	correct := 0
	for i := 0; i < te.Len(); i++ {
		bestD := float32(0)
		best := -1
		for c := range means {
			var dist float32
			for j := 0; j < stride; j++ {
				diff := te.X.Data[i*stride+j] - means[c].Data[j]
				dist += diff * diff
			}
			if best < 0 || dist < bestD {
				best, bestD = c, dist
			}
		}
		if best == te.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(te.Len())
	if acc < 0.8 {
		t.Fatalf("nearest-prototype accuracy = %v, data not learnable", acc)
	}
}

func TestShardDirichletValidation(t *testing.T) {
	d := gen(t, "cifar10", 40)
	for _, f := range []func(){
		func() { d.ShardDirichlet(0, 0.5, 1) },
		func() { d.ShardDirichlet(4, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid args must panic")
				}
			}()
			f()
		}()
	}
}

func TestShardDirichletLargeAlphaNearIID(t *testing.T) {
	d := gen(t, "cifar10", 400)
	shards := d.ShardDirichlet(4, 100, 7)
	// With alpha=100 every shard should see every class.
	for i, s := range shards {
		for c, n := range s.ClassHistogram() {
			if n == 0 {
				t.Fatalf("shard %d missing class %d at alpha=100", i, c)
			}
		}
	}
}

func TestShardDirichletSmallAlphaSkews(t *testing.T) {
	d := gen(t, "cifar10", 400)
	shards := d.ShardDirichlet(8, 0.1, 7)
	// Heavy skew: at least one shard must be missing several classes.
	minSeen := d.Classes
	total := 0
	for _, s := range shards {
		seen := 0
		for _, n := range s.ClassHistogram() {
			if n > 0 {
				seen++
			}
		}
		if seen < minSeen {
			minSeen = seen
		}
		total += s.Len()
	}
	if total != 400 {
		t.Fatalf("coverage %d, want 400", total)
	}
	if minSeen > d.Classes-3 {
		t.Fatalf("alpha=0.1 produced near-IID shards (min %d/%d classes)", minSeen, d.Classes)
	}
}

func TestShardDirichletDeterministic(t *testing.T) {
	d := gen(t, "fmnist", 120)
	a := d.ShardDirichlet(4, 0.5, 9)
	b := d.ShardDirichlet(4, 0.5, 9)
	for i := range a {
		if a[i].Len() != b[i].Len() {
			t.Fatal("same seed must reproduce shard sizes")
		}
	}
}

// scheduleView is what a track sees of the schedule at one epoch: every
// group's shard pixels and labels plus the first batch it would train on.
func scheduleView(s *Schedule, n, epoch int) [][]float32 {
	var view [][]float32
	for g, shard := range s.Shards(n, epoch) {
		x, labels := s.Iterator(n, g, epoch).Next()
		row := append([]float32{}, shard.X.Data...)
		for _, y := range append(append([]int{}, shard.Labels...), labels...) {
			row = append(row, float32(y))
		}
		view = append(view, append(row, x.Data...))
	}
	return view
}

// The schedule is a pure function of (train, n, seed, epoch): walking
// the epochs in order, jumping straight to one, and rewinding all see
// the same shards and the same first batches — which is what makes a
// resume, a retry and a mesh rollback the same call.
func TestScheduleIsAFunctionOfEpoch(t *testing.T) {
	train := gen(t, "fmnist", 90)
	for _, pinned := range []bool{false, true} {
		for _, n := range []int{1, 3, 4} {
			mk := func() *Schedule { return &Schedule{Train: train, Batch: 8, Seed: 5, Pinned: pinned} }
			walk := mk()
			var want [][][]float32
			for e := 0; e <= 5; e++ {
				want = append(want, scheduleView(walk, n, e))
			}
			if !pinned && n > 1 && reflect.DeepEqual(want[0], want[1]) {
				t.Fatalf("n=%d: the epoch boundary did not reshuffle", n)
			}
			if got := scheduleView(mk(), n, 5); !reflect.DeepEqual(got, want[5]) {
				t.Fatalf("pinned=%v n=%d: jumping to epoch 5 differs from walking there", pinned, n)
			}
			for _, e := range []int{2, 5} { // walk stands at 5: rewind, then forward again
				if got := scheduleView(walk, n, e); !reflect.DeepEqual(got, want[e]) {
					t.Fatalf("pinned=%v n=%d: rewinding 5→2→5 changed epoch %d", pinned, n, e)
				}
			}
		}
	}
}

// A pinned schedule hands out the continuation of one batch stream: the
// iterator for epoch e resumes exactly where epoch e-1's stopped.
func TestSchedulePinnedContinuesOneStream(t *testing.T) {
	s := &Schedule{Train: gen(t, "fmnist", 90), Batch: 8, Seed: 5, Pinned: true}
	kept := s.Iterator(3, 1, 0)
	steps := s.Steps(3, 0)
	for e := 0; e < 3; e++ {
		fresh := s.Iterator(3, 1, e)
		for i := 0; i < steps; i++ {
			kx, kl := kept.Next()
			fx, fl := fresh.Next()
			if !reflect.DeepEqual(kx.Data, fx.Data) || !reflect.DeepEqual(kl, fl) {
				t.Fatalf("epoch %d step %d: the epoch-%d iterator is not the kept stream's continuation", e, i, e)
			}
		}
	}
}

// Steps is the lockstep count every track walks: group 0's batches per
// epoch over its shard of that epoch, pinned or reshuffled.
func TestScheduleStepsAreGroupZeros(t *testing.T) {
	train := gen(t, "fmnist", 97)
	for _, pinned := range []bool{false, true} {
		for _, n := range []int{1, 2, 3, 4} {
			s := &Schedule{Train: train, Batch: 8, Seed: 5, Pinned: pinned}
			for e := 0; e <= 4; e++ {
				want := s.Iterator(n, 0, e).BatchesPerEpoch()
				if got := s.Steps(n, e); got != want {
					t.Fatalf("pinned=%v n=%d epoch %d: Steps = %d, group 0 walks %d batches", pinned, n, e, got, want)
				}
			}
		}
	}
}
