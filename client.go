package socflow

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"socflow/internal/core"
	"socflow/internal/metrics"
	"socflow/internal/server"
)

// Event is one entry of a job's observability stream — epoch
// completions, faults, detections, rejoins — as emitted by the metrics
// event bus.
type Event = metrics.Event

// JobState is a job's position in the control-plane lifecycle.
type JobState = server.State

// Job lifecycle states, re-exported from the control plane.
const (
	JobQueued   = server.JobQueued
	JobRunning  = server.JobRunning
	JobParking  = server.JobParking
	JobParked   = server.JobParked
	JobDone     = server.JobDone
	JobFailed   = server.JobFailed
	JobCanceled = server.JobCanceled
)

// JobStatus is a point-in-time snapshot of a submitted job.
type JobStatus = server.Status

// Client submits jobs to a control plane: either an in-process Server
// (NewServer(...).Client(), or the implicit unbounded server behind
// Run/RunDistributed) or a remote socflow-server daemon (Dial).
type Client struct {
	srv  *server.Server // in-process
	base string         // remote daemon base URL
	hc   *http.Client
}

// Dial returns a Client for a socflow-server daemon at base (e.g.
// "http://127.0.0.1:7077"). Remote jobs carry the Config and the
// tenant/priority options; execution options (parallelism, tracing,
// metrics) apply to the daemon's process and are not transmitted, and
// Events streams are unavailable remotely.
func Dial(base string) *Client {
	return &Client{base: base, hc: &http.Client{}}
}

// defaultClient backs Run and RunDistributed: a lazily-created
// in-process server with effectively unbounded capacity and no quotas,
// so library runs start immediately — the scheduler is the single
// execution path, never an obstacle.
var (
	defaultMu sync.Mutex
	defaultCl *Client
)

func defaultClient() *Client {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultCl == nil {
		defaultCl = &Client{srv: server.New(server.Config{
			TotalSoCs:  1 << 30,
			QueueLimit: 1 << 30,
		})}
	}
	return defaultCl
}

// jobRef is the shared core of JobHandle and DistributedJobHandle.
type jobRef struct {
	c  *Client
	id string

	mu        sync.Mutex
	events    chan Event
	closed    bool
	regs      []*metrics.Registry
	nSub      int // how many of regs this handle has subscribed to
	remoteRep json.RawMessage
}

// ID returns the control plane's job identifier.
func (h *jobRef) ID() string { return h.id }

// Status returns the job's current lifecycle snapshot.
func (h *jobRef) Status(ctx context.Context) (JobStatus, error) {
	if h.c.srv != nil {
		return h.c.srv.Get(h.id)
	}
	var jr struct {
		JobStatus
		Report json.RawMessage `json:"report"`
	}
	if err := h.c.getJSON(ctx, "/v1/jobs/"+h.id, &jr); err != nil {
		return JobStatus{}, err
	}
	if jr.Report != nil {
		h.mu.Lock()
		h.remoteRep = jr.Report
		h.mu.Unlock()
	}
	return jr.JobStatus, nil
}

// Cancel stops the job: queued and parked jobs cancel immediately,
// running jobs between iterations. Canceling a finished job is a
// no-op.
func (h *jobRef) Cancel(ctx context.Context) error {
	if h.c.srv != nil {
		return h.c.srv.Cancel(h.id)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, h.c.base+"/v1/jobs/"+h.id, nil)
	if err != nil {
		return err
	}
	resp, err := h.c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("socflow: cancel %s: %s: %s", h.id, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// Events returns the job's event stream: every metrics event the job
// emits (epoch completions first among them) from the moment Events is
// first called, buffered a few hundred entries deep (slow consumers
// drop, never block training). The channel closes when the job reaches
// a terminal state. Remote handles return an already-closed channel —
// the HTTP surface carries statuses, not streams.
func (h *jobRef) Events() <-chan Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.events == nil {
		h.events = make(chan Event, 256)
		if h.closed || h.c.srv == nil {
			close(h.events)
			return h.events
		}
	}
	h.subscribeLocked()
	return h.events
}

// attachRegistry wires a run segment's registry into the event stream.
func (h *jobRef) attachRegistry(reg *metrics.Registry) {
	if h == nil || reg == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.regs = append(h.regs, reg)
	if h.events != nil && !h.closed {
		h.subscribeLocked()
	}
}

func (h *jobRef) subscribeLocked() {
	for ; h.nSub < len(h.regs); h.nSub++ {
		h.regs[h.nSub].Subscribe(func(e Event) {
			h.mu.Lock()
			defer h.mu.Unlock()
			if h.events == nil || h.closed {
				return
			}
			select {
			case h.events <- e:
			default: // full buffer: drop rather than stall training
			}
		})
	}
}

// finishEvents closes the stream at job termination.
func (h *jobRef) finishEvents() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	if h.events != nil {
		close(h.events)
	}
}

// waitRemote polls the daemon until the job is terminal.
func (h *jobRef) waitRemote(ctx context.Context) (JobStatus, error) {
	delay := 25 * time.Millisecond
	for {
		st, err := h.Status(ctx)
		if err != nil {
			return JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case <-time.After(delay):
		}
		if delay < 500*time.Millisecond {
			delay *= 2
		}
	}
}

func (h *jobRef) remoteResult(ctx context.Context, out any) error {
	st, err := h.waitRemote(ctx)
	if err != nil {
		return err
	}
	switch st.State {
	case JobCanceled:
		return context.Canceled
	case JobFailed:
		return fmt.Errorf("socflow: job %s failed: %s", h.id, st.Error)
	}
	h.mu.Lock()
	raw := h.remoteRep
	h.mu.Unlock()
	if raw == nil {
		return fmt.Errorf("socflow: job %s finished without a report", h.id)
	}
	return json.Unmarshal(raw, out)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("socflow: GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) postJob(ctx context.Context, req server.SubmitRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("socflow: submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var sub server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", err
	}
	return sub.ID, nil
}

// JobHandle tracks a training job submitted with Client.Submit.
type JobHandle struct {
	jobRef
}

// Wait blocks until the job finishes and returns its report. The ctx
// only bounds the wait — cancel the job itself with Cancel, or by
// canceling the context the job was submitted under.
func (h *JobHandle) Wait(ctx context.Context) (*Report, error) {
	if h.c.srv != nil {
		res, err := h.c.srv.Wait(ctx, h.id)
		if err != nil {
			return nil, err
		}
		rep, _ := res.(*Report)
		return rep, nil
	}
	var rep Report
	if err := h.remoteResult(ctx, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// DistributedJobHandle tracks a job submitted with SubmitDistributed.
type DistributedJobHandle struct {
	jobRef
}

// Wait blocks until the job finishes and returns its report; see
// JobHandle.Wait for the ctx contract.
func (h *DistributedJobHandle) Wait(ctx context.Context) (*DistributedReport, error) {
	if h.c.srv != nil {
		res, err := h.c.srv.Wait(ctx, h.id)
		if err != nil {
			return nil, err
		}
		rep, _ := res.(*DistributedReport)
		return rep, nil
	}
	var rep DistributedReport
	if err := h.remoteResult(ctx, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Submit admits a training job to the control plane and returns
// immediately with a handle. The job is bound to ctx: canceling it
// cancels the job (which is how Run, a submit-and-wait wrapper, keeps
// its cancellation contract). Configuration errors surface here, not
// at Wait. Training jobs of every strategy are preemptible: a
// higher-priority submission can park them at an epoch boundary via
// checkpoint and they resume from CheckpointStore.Latest() when
// capacity returns.
func (c *Client) Submit(ctx context.Context, cfg Config, opts ...Option) (*JobHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if c.srv == nil {
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		id, err := c.postJob(ctx, server.SubmitRequest{
			Tenant: o.tenant, Priority: o.priority, Kind: "train", Config: raw,
		})
		if err != nil {
			return nil, err
		}
		return &JobHandle{jobRef{c: c, id: id}}, nil
	}
	h := &JobHandle{jobRef{c: c}}
	spec, err := buildTrainSpec(ctx, cfg, o, &h.jobRef)
	if err != nil {
		return nil, err
	}
	id, err := c.srv.Submit(spec)
	if err != nil {
		return nil, err
	}
	h.id = id
	return h, nil
}

// SubmitDistributed admits a distributed-engine job; the same contract
// as Submit. Distributed jobs are not preemptible — the concurrent
// engine has its own elastic recovery track (per-SoC departures and
// rejoins) instead of whole-job parking.
func (c *Client) SubmitDistributed(ctx context.Context, cfg DistributedConfig, opts ...Option) (*DistributedJobHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if c.srv == nil {
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		id, err := c.postJob(ctx, server.SubmitRequest{
			Tenant: o.tenant, Priority: o.priority, Kind: "distributed", Config: raw,
		})
		if err != nil {
			return nil, err
		}
		return &DistributedJobHandle{jobRef{c: c, id: id}}, nil
	}
	h := &DistributedJobHandle{jobRef{c: c}}
	spec, err := buildDistributedSpec(ctx, cfg, o, &h.jobRef)
	if err != nil {
		return nil, err
	}
	id, err := c.srv.Submit(spec)
	if err != nil {
		return nil, err
	}
	h.id = id
	return h, nil
}

// buildTrainSpec compiles a Config into the scheduler's JobSpec. The
// returned runner executes exactly the pre-control-plane Run sequence,
// so an uninterrupted scheduled job is bit-identical to the old direct
// path; across park/resume segments it accumulates one merged report.
func buildTrainSpec(submitCtx context.Context, cfg Config, o runOptions, h *jobRef) (server.JobSpec, error) {
	// Build eagerly so configuration errors surface at Submit.
	job, clu, err := buildJob(cfg)
	if err != nil {
		return server.JobSpec{}, err
	}
	if o.plan != nil {
		if _, err := strategyFromPlan(cfg, o.plan); err != nil {
			return server.JobSpec{}, err
		}
	}
	store, err := o.checkpointStore()
	if err != nil {
		return server.JobSpec{}, err
	}

	// Registry and subscribers are per-job, created once so resume
	// segments do not double-subscribe the trace writer.
	userReg := o.registry()
	o.subscribe(userReg)

	// Accumulated state across park/resume segments.
	var (
		acc        accumulatedRun
		evReg      *metrics.Registry
		parkDir    string
		parkStore  *core.CheckpointStore
		segStarted bool
	)

	run := func(runCtx context.Context, ctl *server.Controller) (any, error) {
		defer o.apply()()
		// The job is bound to the submission context; the scheduler's
		// runCtx additionally cancels it (server shutdown, Cancel).
		ctx, cancel := context.WithCancel(submitCtx)
		defer cancel()
		stop := context.AfterFunc(runCtx, cancel)
		defer stop()

		// The job always publishes into a registry so the handle's
		// Events stream works whenever it is subscribed; the expensive
		// kernel harvest stays keyed to the user's registry, and the
		// report's Metrics field keeps its "nil unless requested"
		// contract.
		reg := userReg
		if reg == nil {
			if evReg == nil {
				evReg = metrics.New()
			}
			reg = evReg
		}
		h.attachRegistry(reg)

		job.Metrics = reg
		job.EpochEnd = func(epoch int, acc, simSeconds float64) {
			ctl.ObserveEpoch(epoch)
		}
		if store != nil {
			job.Checkpoints = store
			job.CheckpointEvery = o.checkpointEvery
		}
		if o.recovery {
			job.MaxEpochRetries = o.maxRetries
			job.RetryBackoff = o.retryBackoff
		}
		job.StartEpoch = 0
		job.Resume = nil
		if ctl.StartEpoch() > 0 && parkStore != nil {
			cp, err := parkStore.Latest()
			if err != nil {
				return nil, fmt.Errorf("socflow: loading park checkpoint: %w", err)
			}
			if cp != nil {
				job.Resume = cp
				job.StartEpoch = cp.Epoch
			}
		}
		job.ShouldPark = ctl.ParkRequested

		strat, err := buildStrategy(ctx, cfg, o)
		if err != nil {
			return nil, err
		}
		if o.logger != nil {
			if segStarted {
				o.logger.Printf("resume: %s on %s/%s from epoch %d", strat.Name(), cfg.Model, cfg.Dataset, job.StartEpoch)
			} else {
				o.logger.Printf("run: %s on %s/%s, %d SoCs", strat.Name(), cfg.Model, cfg.Dataset, cfg.NumSoCs)
			}
		}
		segStarted = true

		job.Kernels = core.BeginKernelHarvest(userReg)
		span := reg.BeginSpan("run", "facade", 0)
		res, err := strat.Run(ctx, job, clu)
		span.End()
		job.Kernels.Finish()
		if err != nil {
			return nil, err
		}
		acc.add(job.StartEpoch, res)

		if res.Parked {
			if parkStore == nil {
				if parkDir == "" {
					parkDir, err = os.MkdirTemp("", "socflow-park-*")
					if err != nil {
						return nil, fmt.Errorf("socflow: park directory: %w", err)
					}
				}
				parkStore, err = core.NewCheckpointStore(parkDir)
				if err != nil {
					return nil, err
				}
				parkStore.KeepLast = 2
			}
			cp := &core.Checkpoint{
				Epoch:   job.StartEpoch + len(res.EpochAccuracies),
				Weights: res.FinalWeights,
				State:   res.FinalState,
			}
			if err := parkStore.Save(cp); err != nil {
				return nil, fmt.Errorf("socflow: saving park checkpoint: %w", err)
			}
			return nil, server.ErrParked
		}

		rep := acc.report(cfg, job)
		rep.Metrics = userReg.Snapshot()
		return rep, nil
	}

	onTerminal := func() {
		h.finishEvents()
		if parkDir != "" {
			os.RemoveAll(parkDir)
		}
	}

	return server.JobSpec{
		Tenant:      o.tenant,
		Priority:    o.priority,
		SoCs:        cfg.NumSoCs,
		Epochs:      cfg.Epochs,
		Preemptible: true,
		Run:         run,
		OnTerminal:  onTerminal,
	}, nil
}

// accumulatedRun merges the per-segment core results of a job that may
// have been parked and resumed into one run-level view. For the common
// single-segment job the merge is the identity, preserving bit-exact
// reports.
type accumulatedRun struct {
	strategy        string
	epochAccuracies []float64
	epochSims       []float64
	simSeconds      float64
	energyJ         float64
	breakdown       core.Breakdown
	preemptions     int
	epochsToTarget  int
	simToTarget     float64
}

func (a *accumulatedRun) add(startEpoch int, res *core.Result) {
	a.strategy = res.Strategy
	a.epochAccuracies = append(a.epochAccuracies[:min(startEpoch, len(a.epochAccuracies))], res.EpochAccuracies...)
	a.epochSims = append(a.epochSims[:min(startEpoch, len(a.epochSims))], res.EpochSimSeconds...)
	simBefore := a.simSeconds
	a.simSeconds += res.SimSeconds
	a.energyJ += res.EnergyJ
	a.breakdown.Compute += res.Breakdown.Compute
	a.breakdown.Sync += res.Breakdown.Sync
	a.breakdown.Update += res.Breakdown.Update
	a.preemptions += res.Preemptions
	if res.EpochsToTarget > 0 && a.epochsToTarget == 0 {
		a.epochsToTarget = startEpoch + res.EpochsToTarget
		a.simToTarget = simBefore + res.SimSecondsToTarget
	}
}

func (a *accumulatedRun) report(cfg Config, job *core.Job) *Report {
	var final, best float64
	for _, v := range a.epochAccuracies {
		if v > best {
			best = v
		}
	}
	if n := len(a.epochAccuracies); n > 0 {
		final = a.epochAccuracies[n-1]
	}
	mean := 0.0
	if len(a.epochSims) > 0 {
		mean = a.simSeconds / float64(len(a.epochSims))
	}
	return &Report{
		Strategy:                 a.strategy,
		Model:                    cfg.Model,
		Dataset:                  cfg.Dataset,
		EpochAccuracies:          a.epochAccuracies,
		FinalAccuracy:            final,
		BestAccuracy:             best,
		SimSeconds:               a.simSeconds,
		MeanEpochSeconds:         mean,
		EnergyKJ:                 a.energyJ / 1000,
		ComputeSeconds:           a.breakdown.Compute,
		SyncSeconds:              a.breakdown.Sync,
		UpdateSeconds:            a.breakdown.Update,
		EpochsToTarget:           a.epochsToTarget,
		SimSecondsToTarget:       a.simToTarget,
		EstimatedHoursToConverge: mean * float64(job.Spec.EpochsToConverge) / 3600,
		Preemptions:              a.preemptions,
	}
}
