package serve

import (
	"fmt"

	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/tensor"
)

// ReplayConfig drives one serving window.
type ReplayConfig struct {
	// Batcher is the dynamic batching policy.
	Batcher BatcherConfig
	// Replicas is how many independent pipeline replicas serve the
	// stream (each Engine.Stages SoCs wide; replicas are symmetric).
	Replicas int
	// Metrics, when set, receives the serve.* instruments; otherwise an
	// ephemeral registry backs the result's quantiles.
	Metrics *metrics.Registry
	// Data, when set, makes the functional track real: each batch is
	// assembled from these samples (buffers reused) and classified with
	// Engine.Predict. Nil skips the math and replays timing only.
	Data *dataset.Dataset
}

// Result summarizes a replayed serving window.
type Result struct {
	Requests int `json:"requests"`
	Served   int `json:"served"`
	SLOMet   int `json:"slo_met"`
	Shed     int `json:"shed"`
	Canceled int `json:"canceled"`
	Batches  int `json:"batches"`
	// MaxQueueDepth is the deepest the admission queue got.
	MaxQueueDepth int `json:"max_queue_depth"`
	// Attainment is SLOMet over every non-abandoned request — sheds
	// count as misses; a shed request is still a user turned away.
	Attainment float64 `json:"attainment"`
	// P50/P99/Mean are per-request latency in simulated seconds,
	// estimated from the serve.latency.seconds histogram.
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
}

// Merge folds another window's result into r, recomputing attainment;
// quantiles are left to the caller, who holds the shared histogram.
func (r *Result) Merge(o *Result) {
	r.Requests += o.Requests
	r.Served += o.Served
	r.SLOMet += o.SLOMet
	r.Shed += o.Shed
	r.Canceled += o.Canceled
	r.Batches += o.Batches
	if o.MaxQueueDepth > r.MaxQueueDepth {
		r.MaxQueueDepth = o.MaxQueueDepth
	}
	if n := r.Requests - r.Canceled; n > 0 {
		r.Attainment = float64(r.SLOMet) / float64(n)
	}
}

// Replay pushes an arrival stream through the batcher and engine on the
// simulated clock: requests are admitted (or shed) as they arrive,
// batches launch when full or when the oldest request has waited
// MaxDelay, each launch occupies the earliest-free replica for the
// pipeline's initiation interval, and every request in a batch finishes
// after the full pipeline latency. Deterministic: same engine, stream,
// and config give bit-identical results.
func Replay(e *Engine, reqs []Request, cfg ReplayConfig) (*Result, error) {
	b, err := NewBatcher(cfg.Batcher)
	if err != nil {
		return nil, err
	}
	replicas := cfg.Replicas
	if replicas < 1 {
		replicas = 1
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	var (
		cRequests = reg.Counter("serve.requests")
		cServed   = reg.Counter("serve.served")
		cSLOMet   = reg.Counter("serve.slo.met")
		cShed     = reg.Counter("serve.shed")
		cCanceled = reg.Counter("serve.canceled")
		cBatches  = reg.Counter("serve.batches")
		hLatency  = reg.Histogram("serve.latency.seconds", metrics.DefaultSecondsBuckets)
		// A request's latency split: its queue time (launch − arrival),
		// then each stage's compute and each boundary's transfer.
		hQueue    = reg.Histogram("serve.queue.seconds", metrics.DefaultSecondsBuckets)
		hCompute  = make([]*metrics.Histogram, len(e.Stages))
		hTransfer = make([]*metrics.Histogram, len(e.hops))
	)
	for i := range hCompute {
		hCompute[i] = reg.Histogram(fmt.Sprintf("serve.stage%d.compute.seconds", i), metrics.DefaultSecondsBuckets)
	}
	for i := range hTransfer {
		hTransfer[i] = reg.Histogram(fmt.Sprintf("serve.boundary%d.transfer.seconds", i), metrics.DefaultSecondsBuckets)
	}

	// Functional-track batch buffers, reused across flushes.
	var (
		bx     *tensorBatch
		bbuf   []Request // reused FlushInto destination
		res    Result
		free   = make([]float64, replicas) // when each replica admits again
		now    float64
		next   int // arrival cursor
		minLat = e.Price(1).Latency
	)
	if cfg.Data != nil {
		bx = newTensorBatch(cfg.Data)
	}

	// The hopeless test prices the best case: wait for a replica, wait
	// out the backlog already queued ahead (one initiation interval per
	// full batch), then ride the smallest batch through the pipeline.
	bnFull := e.Price(cfg.Batcher.MaxBatch).Bottleneck
	admit := func(r Request) {
		res.Requests++
		cRequests.Inc()
		ta := r.Arrival
		if ta > now {
			now = ta
		}
		wait := minFree(free) - ta
		if wait < 0 {
			wait = 0
		}
		wait += float64(b.Len()/cfg.Batcher.MaxBatch) * bnFull
		if !b.Admit(r, ta, wait+minLat) {
			cShed.Inc()
		}
	}

	for next < len(reqs) || b.Len() > 0 {
		if b.Len() == 0 {
			admit(reqs[next])
			next++
			continue
		}
		// When should the next batch launch? When it is due (oldest
		// request's MaxDelay) or immediately if full — but never before
		// the present, and never before a replica frees up.
		due, _ := b.DueAt()
		launch := due
		if b.Full() || launch < now {
			launch = now
		}
		if mf := minFree(free); launch < mf {
			launch = mf
		}
		// Anything arriving before the launch joins the queue first (and
		// may move the flush's EDF composition).
		if next < len(reqs) && reqs[next].Arrival <= launch {
			admit(reqs[next])
			next++
			continue
		}
		now = launch
		canceledBefore := b.Canceled()
		batch := b.FlushInto(bbuf, now)
		bbuf = batch[:0]
		cCanceled.Add(int64(b.Canceled() - canceledBefore))
		if len(batch) == 0 {
			continue // timer fired on a fully-canceled queue
		}
		p := e.Price(len(batch))
		finish := now + p.Latency
		// The launching replica pipelines: it can admit the next batch
		// after the bottleneck stage drains, not after the full latency.
		i := argminFree(free)
		free[i] = now + p.Bottleneck
		res.Batches++
		cBatches.Inc()
		for _, r := range batch {
			lat := finish - r.Arrival
			hLatency.Observe(lat)
			hQueue.Observe(now - r.Arrival)
			for j, t := range p.Stages {
				hCompute[j].Observe(t)
			}
			for j, t := range p.Transfers {
				hTransfer[j].Observe(t)
			}
			res.Served++
			cServed.Inc()
			if finish <= r.Deadline {
				res.SLOMet++
				cSLOMet.Inc()
			}
		}
		if bx != nil {
			e.Predict(bx.assemble(batch))
		}
	}

	res.Shed = b.Shed()
	res.Canceled = b.Canceled()
	res.MaxQueueDepth = b.MaxDepth()
	if n := res.Requests - res.Canceled; n > 0 {
		res.Attainment = float64(res.SLOMet) / float64(n)
	}
	reg.Gauge("serve.slo.attainment").Set(res.Attainment)
	if g := reg.Gauge("serve.queue.depth.max"); g.Value() < float64(res.MaxQueueDepth) {
		g.Set(float64(res.MaxQueueDepth))
	}

	// One estimator everywhere: the latency quantiles come from the
	// histogram snapshot, exactly what Quantile is for.
	if rep := reg.Snapshot(); rep != nil {
		if h, ok := rep.Histograms["serve.latency.seconds"]; ok && h.Count > 0 {
			res.P50Seconds = h.Quantile(0.50)
			res.P99Seconds = h.Quantile(0.99)
			res.MeanSeconds = h.Sum / float64(h.Count)
		}
	}
	return &res, nil
}

func minFree(free []float64) float64 {
	m := free[0]
	for _, f := range free[1:] {
		if f < m {
			m = f
		}
	}
	return m
}

func argminFree(free []float64) int {
	idx := 0
	for i, f := range free {
		if f < free[idx] {
			idx = i
		}
	}
	return idx
}

// tensorBatch assembles request samples into a reused input tensor so
// the functional forward path stays allocation-free across flushes.
type tensorBatch struct {
	ds     *dataset.Dataset
	idx    []int
	x      *tensor.Tensor
	labels []int
}

func newTensorBatch(ds *dataset.Dataset) *tensorBatch { return &tensorBatch{ds: ds} }

func (tb *tensorBatch) assemble(batch []Request) *tensor.Tensor {
	tb.idx = tb.idx[:0]
	for _, r := range batch {
		tb.idx = append(tb.idx, r.Sample%tb.ds.Len())
	}
	tb.x, tb.labels = tb.ds.BatchInto(tb.x, tb.labels, tb.idx)
	return tb.x
}
