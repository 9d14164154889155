package socflow

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

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
// Run/RunDistributed) or a remote `socflow server` daemon (Dial).
type Client struct {
	srv  *server.Server // in-process
	base string         // remote daemon base URL
	hc   *http.Client
}

// Dial returns a Client for a `socflow server` daemon at base (e.g.
// "http://127.0.0.1:7077"). Remote jobs carry the Config and the
// tenant/priority options; execution options (parallelism, tracing,
// metrics) apply to the daemon's process and are not transmitted.
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

// jobRef is the kind-independent core of every job handle.
type jobRef struct {
	c   *Client
	id  string
	reg *metrics.Registry // the job's registry; nil on remote handles

	mu        sync.Mutex
	events    chan Event
	closed    bool
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
// a terminal state. A remote handle follows the daemon's
// GET /v1/jobs/{id}/events stream; Events returns once the daemon has
// subscribed, and the channel also closes if the daemon goes away.
func (h *jobRef) Events() <-chan Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.events != nil {
		return h.events
	}
	h.events = make(chan Event, 256)
	switch {
	case h.closed:
		close(h.events)
	case h.c.srv == nil:
		h.followRemoteLocked()
	default:
		h.reg.Subscribe(h.deliver)
	}
	return h.events
}

// deliver queues e on the stream; a full buffer drops it rather than
// stall the emitter.
func (h *jobRef) deliver(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	select {
	case h.events <- e:
	default:
	}
}

// followRemoteLocked opens the daemon's server-sent event stream for
// the job, whose headers arrive once the daemon has subscribed, and
// copies its events into the handle's channel until the stream ends.
func (h *jobRef) followRemoteLocked() {
	resp, err := h.c.hc.Get(h.c.base + "/v1/jobs/" + h.id + "/events")
	if err != nil || resp.StatusCode != http.StatusOK {
		if err == nil {
			resp.Body.Close()
		}
		h.closed = true
		close(h.events)
		return
	}
	go func() {
		defer h.finishEvents()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			var e Event
			if json.Unmarshal(data, &e) == nil {
				h.deliver(e)
			}
		}
	}()
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

// handle is a job handle whose report is an R.
type handle[R any] struct {
	jobRef
}

// Wait blocks until the job finishes and returns its report. The ctx
// only bounds the wait — cancel the job itself with Cancel, or by
// canceling the context the job was submitted under.
func (h *handle[R]) Wait(ctx context.Context) (*R, error) {
	if h.c.srv != nil {
		res, err := h.c.srv.Wait(ctx, h.id)
		if err != nil {
			return nil, err
		}
		rep, _ := res.(*R)
		return rep, nil
	}
	st, err := h.waitRemote(ctx)
	if err != nil {
		return nil, err
	}
	switch st.State {
	case JobCanceled:
		return nil, context.Canceled
	case JobFailed:
		return nil, fmt.Errorf("socflow: job %s failed: %s", h.id, st.Error)
	}
	h.mu.Lock()
	raw := h.remoteRep
	h.mu.Unlock()
	if raw == nil {
		return nil, fmt.Errorf("socflow: job %s finished without a report", h.id)
	}
	var rep R
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
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
	handle[Report]
}

// DistributedJobHandle tracks a job submitted with SubmitDistributed.
type DistributedJobHandle struct {
	handle[DistributedReport]
}

// Submit admits a training job to the control plane and returns
// immediately with a handle. The job is bound to ctx: canceling it
// cancels the job (which is how Run, a submit-and-wait wrapper, keeps
// its cancellation contract). Configuration errors surface here, not
// at Wait, each wrapping a sentinel from errors.go. Training jobs of
// every strategy are preemptible: a higher-priority submission can park
// them at an epoch boundary via checkpoint and they resume from
// CheckpointStore.Latest() when capacity returns.
func (c *Client) Submit(ctx context.Context, cfg Config, opts ...Option) (*JobHandle, error) {
	h := new(JobHandle)
	if err := submit(ctx, c, trainKind, cfg, opts, &h.jobRef); err != nil {
		return nil, err
	}
	return h, nil
}

// SubmitDistributed admits a distributed-engine job; the same contract
// as Submit. Distributed jobs are not preemptible — the concurrent
// engine has its own elastic recovery track (per-SoC departures and
// rejoins) instead of whole-job parking.
func (c *Client) SubmitDistributed(ctx context.Context, cfg DistributedConfig, opts ...Option) (*DistributedJobHandle, error) {
	h := new(DistributedJobHandle)
	if err := submit(ctx, c, distKind, cfg, opts, &h.jobRef); err != nil {
		return nil, err
	}
	return h, nil
}
