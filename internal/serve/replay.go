package serve

import (
	"fmt"
	"runtime"
	"sync"

	"socflow/internal/dataset"
	"socflow/internal/metrics"
	"socflow/internal/nn"
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
	// Data, when set, makes the functional track real: each launched
	// batch is assembled from these samples and classified by an eval
	// forward, and Result.Correct counts the right answers. Nil skips
	// the math and replays timing only.
	Data *dataset.Dataset
	// Width is how many host workers run those forwards (0:
	// runtime.GOMAXPROCS). It is the run's own, like core.Job.Width; a
	// request's prediction is the same at every width.
	Width int
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
	// Correct counts served requests whose prediction matched their
	// sample's label (0 without ReplayConfig.Data).
	Correct int `json:"correct"`
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
	r.Correct += o.Correct
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
//
// With cfg.Data the loop does not wait for the math: it hands each
// launched batch's sample indices, in chunks, to cfg.Width workers,
// each running the eval forward on its own model (the engine's, or one
// of its Twins), and returns once every chunk has run. Eval forwards
// are row-independent, so a request's prediction does not depend on
// the worker or the batch that served it.
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
		cCorrect  = reg.Counter("serve.correct")
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

	var (
		pool   *servePool
		bbuf   []Request // reused FlushInto destination
		res    Result
		free   = make([]float64, replicas) // when each replica admits again
		now    float64
		next   int // arrival cursor
		minLat = e.Price(1).Latency
	)
	if cfg.Data != nil {
		pool = e.startPool(cfg.Data, cfg.Width, cfg.Batcher.MaxBatch)
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
		if pool != nil {
			pool.add(batch)
		}
	}
	if pool != nil {
		res.Correct = pool.finish()
		cCorrect.Add(int64(res.Correct))
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

// chunkBatches is how many launched batches Replay hands a worker at
// once. A served batch is ~2 requests and tens of microseconds of
// forward, less than a goroutine wake-up would overlap; one hand-off
// per 64 of them is noise.
const chunkBatches = 64

// chunk is up to chunkBatches launched batches: their sample indices
// back to back, and where each batch ends. Its buffers are sized once,
// for chunkBatches full batches, and keep what they grow to.
type chunk struct {
	idx, ends []int
}

// worker runs the eval forward and argmax of handed-over batches on
// one model, into buffers of its own, and counts correct predictions.
type worker struct {
	model         *nn.Sequential
	x             *tensor.Tensor
	labels, preds []int
	correct       int
	reserved      int // the batch its buffers are sized for
}

// reserve sizes the worker's buffers, its model's included, for
// batches of up to maxBatch samples of ds.
func (w *worker) reserve(ds *dataset.Dataset, maxBatch int) {
	if w.reserved >= maxBatch {
		return
	}
	s := ds.X.Shape
	w.x = tensor.Ensure(w.x, maxBatch, s[1], s[2], s[3])
	w.labels, w.preds = make([]int, maxBatch), make([]int, maxBatch)
	w.model.ReserveEval(w.x)
	w.reserved = maxBatch
}

// run serves every batch of c from ds and empties c.
func (w *worker) run(ds *dataset.Dataset, c *chunk) {
	lo := 0
	for _, hi := range c.ends {
		w.x, w.labels = ds.BatchInto(w.x, w.labels, c.idx[lo:hi])
		w.preds = tensor.ArgmaxRowsInto(w.preds, w.model.Forward(w.x, false))
		for i, p := range w.preds {
			if p == w.labels[i] {
				w.correct++
			}
		}
		lo = hi
	}
	c.idx, c.ends = c.idx[:0], c.ends[:0]
}

// servePool is one Replay's functional track: the loop fills chunks,
// the workers run them. At width 1 the loop runs each full chunk
// itself and no goroutine starts.
type servePool struct {
	ds         *dataset.Dataset
	workers    []*worker
	cur        *chunk
	work, free chan *chunk // nil at width 1
	done       sync.WaitGroup
}

// startPool readies width workers (worker 0 on Model, worker i on twin
// i-1) and 2·width chunks, reusing what the engine kept from earlier
// windows, and starts the workers.
func (e *Engine) startPool(ds *dataset.Dataset, width, maxBatch int) *servePool {
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	twins := e.Twins(width - 1)
	for len(e.workers) < width {
		m := e.Model
		if i := len(e.workers); i > 0 {
			m = twins[i-1]
		}
		e.workers = append(e.workers, &worker{model: m})
	}
	for _, w := range e.workers[:width] {
		w.reserve(ds, maxBatch)
	}
	nChunks := 1
	if width > 1 {
		nChunks = 2 * width
	}
	for len(e.chunks) < nChunks {
		e.chunks = append(e.chunks, &chunk{
			idx:  make([]int, 0, chunkBatches*maxBatch),
			ends: make([]int, 0, chunkBatches),
		})
	}
	p := &servePool{ds: ds, workers: e.workers[:width], cur: e.chunks[0]}
	if width == 1 {
		return p
	}
	p.work = make(chan *chunk, nChunks)
	p.free = make(chan *chunk, nChunks)
	for _, c := range e.chunks[1:nChunks] {
		p.free <- c
	}
	p.done.Add(width)
	for _, w := range p.workers {
		go p.serve(w)
	}
	return p
}

// serve is one worker's loop: run each chunk handed over, give it back.
func (p *servePool) serve(w *worker) {
	defer p.done.Done()
	for c := range p.work {
		w.run(p.ds, c)
		p.free <- c
	}
}

// add appends one launched batch, handing the chunk over once full.
func (p *servePool) add(batch []Request) {
	n := p.ds.Len()
	for _, r := range batch {
		p.cur.idx = append(p.cur.idx, r.Sample%n)
	}
	p.cur.ends = append(p.cur.ends, len(p.cur.idx))
	if len(p.cur.ends) == chunkBatches {
		p.handOff()
	}
}

// handOff runs the current chunk (width 1) or hands it to the workers
// and takes a free one.
func (p *servePool) handOff() {
	if p.work == nil {
		p.workers[0].run(p.ds, p.cur)
		return
	}
	p.work <- p.cur
	p.cur = <-p.free
}

// finish hands over the last, partial chunk, waits for every worker
// and returns the window's correct predictions.
func (p *servePool) finish() int {
	if len(p.cur.ends) > 0 {
		p.handOff()
	}
	if p.work != nil {
		close(p.work)
		p.done.Wait()
	}
	correct := 0
	for _, w := range p.workers {
		correct += w.correct
		w.correct = 0
	}
	return correct
}
