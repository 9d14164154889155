// Package dataset provides seeded synthetic image-classification
// datasets standing in for the paper's five evaluation datasets
// (Table 2: CIFAR-10, EMNIST, Fashion-MNIST, CelebA, CINIC-10), plus
// the sharding, shuffling, and batching machinery the distributed
// engine needs.
//
// Why synthetic: the systems claims in SoCFlow depend on class
// structure, sample counts, input shapes, and how data is partitioned
// across SoCs — not on the actual pixels. Each stand-in dataset is a
// mixture of per-class Gaussian prototypes with controllable
// difficulty, so real SGD converges on it, harder datasets converge
// more slowly, and non-IID sharding degrades FedAvg exactly as in the
// paper. Every dataset is reproducible from a single seed.
package dataset

import (
	"fmt"
	"math"

	"socflow/internal/tensor"
)

// Thin wrappers keep the sampling code below free of math. qualifiers.
func pow(x, y float64) float64 { return math.Pow(x, y) }
func sqrt(x float64) float64   { return math.Sqrt(x) }
func logf(x float64) float64   { return math.Log(x) }

// Dataset is an in-memory labeled image dataset in NCHW layout.
type Dataset struct {
	Name string
	// X holds all images as one [N, C, H, W] tensor.
	X *tensor.Tensor
	// Labels holds the class index for each image.
	Labels []int
	// Classes is the number of distinct classes.
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Channels returns the image channel count.
func (d *Dataset) Channels() int { return d.X.Shape[1] }

// ImageSize returns the (square) spatial size.
func (d *Dataset) ImageSize() int { return d.X.Shape[2] }

// Batch returns views (shared storage) of samples idx as a batch
// tensor plus labels.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	return d.BatchInto(nil, nil, idx)
}

// BatchInto gathers the samples named by idx into x and labels, reusing
// their storage when capacity allows (pass nil to allocate). It returns
// the possibly-regrown buffers; the contents are fully overwritten, so
// a caller that consumes each batch before requesting the next can loop
// with zero steady-state allocations.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, idx []int) (*tensor.Tensor, []int) {
	c, h, w := d.X.Shape[1], d.X.Shape[2], d.X.Shape[3]
	x = tensor.Ensure(x, len(idx), c, h, w)
	if cap(labels) < len(idx) {
		labels = make([]int, len(idx))
	}
	labels = labels[:len(idx)]
	stride := c * h * w
	for i, j := range idx {
		copy(x.Data[i*stride:(i+1)*stride], d.X.Data[j*stride:(j+1)*stride])
		labels[i] = d.Labels[j]
	}
	return x, labels
}

// Subset returns a new dataset containing the given sample indices
// (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	x, labels := d.Batch(idx)
	return &Dataset{Name: d.Name, X: x, Labels: labels, Classes: d.Classes}
}

// Split divides the dataset into two parts at fraction f (0 < f < 1) in
// the current order; shuffle first for a random split.
func (d *Dataset) Split(f float64) (*Dataset, *Dataset) {
	if f <= 0 || f >= 1 {
		panic(fmt.Sprintf("dataset: Split fraction %v out of (0,1)", f))
	}
	cut := int(f * float64(d.Len()))
	if cut == 0 {
		cut = 1
	}
	all := make([]int, d.Len())
	for i := range all {
		all[i] = i
	}
	return d.Subset(all[:cut]), d.Subset(all[cut:])
}

// ClassHistogram returns the per-class sample counts.
func (d *Dataset) ClassHistogram() []int {
	h := make([]int, d.Classes)
	for _, y := range d.Labels {
		h[y]++
	}
	return h
}

// ShardIID splits the dataset into n near-equal IID shards after a
// seeded shuffle, the partitioning SoCFlow uses (the global scheduler
// "dispatches the training data ... each SoC loads only a partial
// dataset").
func (d *Dataset) ShardIID(n int, seed uint64) []*Dataset {
	if n <= 0 {
		panic("dataset: ShardIID with n <= 0")
	}
	r := tensor.NewRNG(seed)
	perm := r.Perm(d.Len())
	shards := make([]*Dataset, n)
	for i := 0; i < n; i++ {
		lo := i * d.Len() / n
		hi := (i + 1) * d.Len() / n
		shards[i] = d.Subset(perm[lo:hi])
	}
	return shards
}

// Reshuffle returns a new IID re-sharding of the union of the given
// shards. SoCFlow invokes this across logical groups at each epoch
// boundary ("SoCFlow can shuffle the input data among different groups
// to guarantee high convergence accuracy").
func Reshuffle(shards []*Dataset, seed uint64) []*Dataset {
	if len(shards) == 0 {
		return nil
	}
	union := Merge(shards...)
	return union.ShardIID(len(shards), seed)
}

// Merge concatenates datasets (which must agree on shape and classes).
func Merge(ds ...*Dataset) *Dataset {
	if len(ds) == 0 {
		panic("dataset: Merge of nothing")
	}
	xs := make([]*tensor.Tensor, len(ds))
	var labels []int
	for i, d := range ds {
		if d.Classes != ds[0].Classes {
			panic("dataset: Merge with differing class counts")
		}
		xs[i] = d.X
		labels = append(labels, d.Labels...)
	}
	return &Dataset{Name: ds[0].Name, X: tensor.Concat(xs...), Labels: labels, Classes: ds[0].Classes}
}

// BatchIterator yields mini-batches over a dataset in a seeded random
// order, reshuffled each epoch.
type BatchIterator struct {
	d     *Dataset
	bs    int
	r     *tensor.RNG
	perm  []int
	pos   int
	epoch int

	// Persistent batch buffers, overwritten by each Next call.
	x      *tensor.Tensor
	labels []int
}

// NewBatchIterator creates an iterator with the given batch size.
func NewBatchIterator(d *Dataset, batchSize int, seed uint64) *BatchIterator {
	if batchSize <= 0 {
		panic("dataset: batch size must be positive")
	}
	it := &BatchIterator{d: d, bs: batchSize, r: tensor.NewRNG(seed)}
	it.perm = it.r.Perm(d.Len())
	return it
}

// Next returns the next mini-batch, wrapping to a new shuffled epoch
// when the data is exhausted. The final batch of an epoch may be
// smaller than the batch size. The returned tensors are the iterator's
// persistent buffers: each call overwrites the previous batch, so
// callers must finish with a batch before requesting the next one —
// the contract every training loop in this repository already follows.
func (it *BatchIterator) Next() (*tensor.Tensor, []int) {
	it.x, it.labels = it.d.BatchInto(it.x, it.labels, it.nextIndices())
	return it.x, it.labels
}

// nextIndices advances the cursor one batch and returns its sample
// indices, drawing a fresh permutation at each epoch wrap.
func (it *BatchIterator) nextIndices() []int {
	if it.pos >= len(it.perm) {
		it.epoch++
		it.perm = it.r.Perm(it.d.Len())
		it.pos = 0
	}
	hi := it.pos + it.bs
	if hi > len(it.perm) {
		hi = len(it.perm)
	}
	idx := it.perm[it.pos:hi]
	it.pos = hi
	return idx
}

// BatchesPerEpoch returns the number of Next calls per epoch.
func (it *BatchIterator) BatchesPerEpoch() int {
	return (it.d.Len() + it.bs - 1) / it.bs
}

// Epoch returns the number of completed epochs.
func (it *BatchIterator) Epoch() int { return it.epoch }

// Schedule is the one statement of SoCFlow's data order (§3.1): which
// samples each logical group holds, and in which batch order it walks
// them, at the start of any epoch — a pure function of (Train, n, Seed,
// epoch). Epoch 0 folds Train into n shards under Seed+1; every epoch
// boundary k re-shards the union across groups under Seed+1000+k; group
// g's batch order is seeded Seed+100+g in epoch 0 and Seed+2000+(e-1)·n+g
// in epoch e. Every track that must agree on data — the simulated
// strategies, the mesh workers, a resumed job, a retried epoch, a
// rolled-back or re-planned mesh round — asks the same question here.
//
// The zero cursor is ready to use. Walking epochs forward reshuffles
// incrementally; asking for an earlier epoch or another n recomputes
// from the fold. A Schedule is not safe for concurrent use.
type Schedule struct {
	// Train is the full training set being folded.
	Train *Dataset
	// Batch is the per-group batch size of the iterators handed out.
	Batch int
	// Seed roots every shuffle.
	Seed uint64
	// DirichletAlpha, when positive, makes the epoch-0 fold non-IID
	// (ShardDirichlet); the reshuffles that follow are IID regardless.
	DirichletAlpha float64
	// Pinned turns the cross-group reshuffle off: groups keep their
	// epoch-0 shard and one batch stream for the whole run, advancing in
	// lockstep by group 0's batches per epoch.
	Pinned bool

	shards []*Dataset
	epoch  int
}

// Shards returns the n groups' shards as of the start of epoch.
func (s *Schedule) Shards(n, epoch int) []*Dataset {
	if s.Pinned {
		epoch = 0
	}
	if len(s.shards) != n || s.epoch > epoch {
		if s.DirichletAlpha > 0 {
			s.shards = s.Train.ShardDirichlet(n, s.DirichletAlpha, s.Seed+1)
		} else {
			s.shards = s.Train.ShardIID(n, s.Seed+1)
		}
		s.epoch = 0
	}
	for ; s.epoch < epoch; s.epoch++ {
		s.shards = Reshuffle(s.shards, s.Seed+1000+uint64(s.epoch))
	}
	return s.shards
}

// Iterator returns group g's batch iterator positioned at the start of
// epoch, over its shard of that epoch.
func (s *Schedule) Iterator(n, g, epoch int) *BatchIterator {
	shards := s.Shards(n, epoch)
	if !s.Pinned && epoch > 0 {
		return NewBatchIterator(shards[g], s.Batch, s.Seed+2000+uint64(epoch-1)*uint64(n)+uint64(g))
	}
	it := NewBatchIterator(shards[g], s.Batch, s.Seed+100+uint64(g))
	// Pinned: replay the stream's indices (no pixels move) up to epoch.
	for skip := epoch * s.Steps(n, epoch); skip > 0; skip-- {
		it.nextIndices()
	}
	return it
}

// Steps returns how many batches every group walks in epoch: group 0's
// batches per epoch over its shard of that epoch. Groups advance in
// lockstep by this count whatever their own shard's length, so every
// track that trains the schedule takes the same number of steps.
func (s *Schedule) Steps(n, epoch int) int {
	return (s.Shards(n, epoch)[0].Len() + s.Batch - 1) / s.Batch
}

// ShardDirichlet splits the dataset into n shards whose per-class
// proportions are drawn from a Dirichlet(alpha) distribution — the
// standard non-IID benchmark partitioning in federated learning.
// Small alpha (e.g. 0.1) concentrates each class on few shards; large
// alpha approaches IID.
func (d *Dataset) ShardDirichlet(n int, alpha float64, seed uint64) []*Dataset {
	if n <= 0 {
		panic("dataset: ShardDirichlet with n <= 0")
	}
	if alpha <= 0 {
		panic("dataset: ShardDirichlet needs alpha > 0")
	}
	r := tensor.NewRNG(seed)
	// Indices per class, shuffled.
	byClass := make([][]int, d.Classes)
	for i, y := range d.Labels {
		byClass[y] = append(byClass[y], i)
	}
	assigned := make([][]int, n)
	for _, idx := range byClass {
		r.Shuffle(idx)
		// Dirichlet via normalized Gamma(alpha) draws.
		props := make([]float64, n)
		var total float64
		for i := range props {
			props[i] = gammaSample(r, alpha)
			total += props[i]
		}
		// Cumulative partition of this class's samples.
		pos := 0
		for s := 0; s < n; s++ {
			take := int(props[s] / total * float64(len(idx)))
			if s == n-1 {
				take = len(idx) - pos
			}
			if pos+take > len(idx) {
				take = len(idx) - pos
			}
			assigned[s] = append(assigned[s], idx[pos:pos+take]...)
			pos += take
		}
	}
	shards := make([]*Dataset, n)
	for s := range shards {
		if len(assigned[s]) == 0 {
			// Guarantee non-empty shards: steal one sample from the
			// largest shard.
			big := 0
			for i := range assigned {
				if len(assigned[i]) > len(assigned[big]) {
					big = i
				}
			}
			last := len(assigned[big]) - 1
			assigned[s] = append(assigned[s], assigned[big][last])
			assigned[big] = assigned[big][:last]
		}
		shards[s] = d.Subset(assigned[s])
	}
	return shards
}

// gammaSample draws from Gamma(shape, 1) via Marsaglia-Tsang (with the
// standard boost for shape < 1).
func gammaSample(r *tensor.RNG, shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gammaSample(r, shape+1) * pow(u, 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / sqrt(9*d)
	for {
		x := float64(r.Normal())
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && logf(u) < 0.5*x*x+d*(1-v+logf(v)) {
			return d * v
		}
	}
}
