package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"socflow/internal/cluster"
	"socflow/internal/metrics"
)

// State is a job's position in the control-plane lifecycle.
type State string

const (
	// JobQueued: admitted, waiting for capacity or quota headroom.
	JobQueued State = "queued"
	// JobRunning: executing on its SoCs.
	JobRunning State = "running"
	// JobParking: told to preempt; still running until the next epoch
	// boundary, where it checkpoints and exits with ErrParked.
	JobParking State = "parking"
	// JobParked: checkpointed and off the cluster, waiting to resume.
	JobParked State = "parked"
	// JobDone: finished successfully; the result is available.
	JobDone State = "done"
	// JobFailed: finished with an error other than cancellation.
	JobFailed State = "failed"
	// JobCanceled: canceled by the submitter or by server shutdown.
	JobCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

var (
	// ErrParked is returned by a RunFunc that stopped at an epoch
	// boundary because the controller asked it to park. The server
	// re-queues the job instead of failing it.
	ErrParked = errors.New("server: job parked for preemption")
	// ErrClosed rejects submissions to a closed server.
	ErrClosed = errors.New("server: closed")
	// ErrQueueFull rejects submissions past the admission bound.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrQuotaExceeded rejects a job that can never satisfy its
	// tenant's quota.
	ErrQuotaExceeded = errors.New("server: tenant quota exceeded")
	// ErrUnknownJob is returned for job IDs the server has never seen.
	ErrUnknownJob = errors.New("server: unknown job")
)

// Config sizes the control plane.
type Config struct {
	// TotalSoCs is the cluster size the scheduler packs jobs into
	// (default 32).
	TotalSoCs int
	// QueueLimit bounds jobs waiting in the admission queue
	// (default 64). Running and parked jobs do not count against it.
	QueueLimit int
	// DefaultQuota applies to tenants absent from Quotas. The zero
	// value is unlimited.
	DefaultQuota Quota
	// Quotas maps tenant name to its quota.
	Quotas map[string]Quota
	// Tidal, when set, derates capacity by the trace's busy fraction
	// at the current Hour — training packs into idle windows.
	Tidal *cluster.TidalTrace
	// Hour is the initial simulated hour of day for Tidal.
	Hour float64
}

// RunFunc executes one job segment. It must watch ctl.ParkRequested at
// epoch boundaries and, when asked, checkpoint and return ErrParked;
// on resume it is called again with ctl.StartEpoch set to the first
// epoch still to run. It should honor ctx for cancellation.
type RunFunc func(ctx context.Context, ctl *Controller) (any, error)

// JobSpec describes a job to the scheduler. The server never inspects
// the work itself — Run is an opaque segment runner, which is what
// keeps this package free of the facade's model/dataset surface.
type JobSpec struct {
	Tenant      string
	Priority    int // higher runs first and may preempt lower
	SoCs        int // cluster slots the job occupies (default 1)
	Epochs      int // advisory; surfaced in Status
	Preemptible bool
	Run         RunFunc
	// Metrics is the job's registry, exported by GET /metrics under the
	// job's labels (nil exports nothing).
	Metrics *metrics.Registry
	// OnTerminal, if set, runs once after the job reaches a terminal
	// state (outside the server lock). The facade uses it to release
	// per-job resources such as event streams and park directories.
	OnTerminal func()
}

// Controller is the per-segment channel between scheduler and job.
type Controller struct {
	park       atomic.Bool
	startEpoch int
	observe    func(epoch int)
	resize     func(socs int)
}

// ParkRequested reports whether the scheduler wants the job off the
// cluster at the next epoch boundary.
func (c *Controller) ParkRequested() bool { return c.park.Load() }

// StartEpoch is the first epoch this segment should run (0 for a fresh
// job, the parked epoch on resume).
func (c *Controller) StartEpoch() int { return c.startEpoch }

// ObserveEpoch records that the given epoch finished, so Status
// reports progress and a resume knows where to restart.
func (c *Controller) ObserveEpoch(epoch int) {
	if c.observe != nil {
		c.observe(epoch)
	}
}

// Resize asks the scheduler to change the job's SoC footprint and
// replan: the serving tenant widens with the request tide and narrows
// at night, parking preemptible training into the swell and releasing
// capacity back on the ebb. Clamped to [1, TotalSoCs]. The new
// footprint bypasses the submit-time quota gate — a grow can push the
// tenant past MaxSoCs until the next shrink — so give an elastic
// serving tenant an unlimited (zero) MaxSoCs quota. No-op outside a
// running segment.
func (c *Controller) Resize(socs int) {
	if c.resize != nil {
		c.resize(socs)
	}
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant"`
	State      State  `json:"state"`
	Priority   int    `json:"priority"`
	SoCs       int    `json:"socs"`
	Epochs     int    `json:"epochs,omitempty"`
	EpochsDone int    `json:"epochs_done"`
	Parks      int    `json:"parks"`
	Resumes    int    `json:"resumes"`
	Error      string `json:"error,omitempty"`
}

// Decision is one entry of a job's scheduler decision log: what the
// scheduler did with the job, and the quota, priority or capacity
// figure that made it do so.
type Decision struct {
	Time time.Time `json:"time"`
	// Hour is the simulated hour of day the decision was made at.
	Hour float64 `json:"hour"`
	// Outcome is admit, queue, park, resume or resize.
	Outcome string `json:"outcome"`
	Reason  string `json:"reason"`
}

// decisionLogSize bounds each job's decision log; older entries drop.
const decisionLogSize = 64

type job struct {
	id       string
	spec     JobSpec
	seq      uint64
	state    State
	epochs   int // epochsDone
	parks    int
	resumes  int
	err      error
	result   any
	done     chan struct{}
	cancel   context.CancelFunc // set while a segment is in flight
	ctl      *Controller
	canceled bool       // submitter asked for cancellation
	log      []Decision // the last decisionLogSize decisions, oldest first
}

// record appends a decision to the job's log, unless it repeats the
// last entry's outcome and reason: a job held for the same figure
// round after round is logged once.
func (j *job) record(hour float64, outcome, reason string) {
	if n := len(j.log); n > 0 && j.log[n-1].Outcome == outcome && j.log[n-1].Reason == reason {
		return
	}
	if len(j.log) == decisionLogSize {
		j.log = append(j.log[:0], j.log[1:]...)
	}
	j.log = append(j.log, Decision{Time: time.Now(), Hour: hour, Outcome: outcome, Reason: reason})
}

// Server is the control plane. One instance owns the simulated
// cluster's capacity; all jobs — library Submit calls and daemon HTTP
// submissions alike — flow through its scheduler.
type Server struct {
	cfg Config

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	seq    uint64
	hour   float64
	jobs   map[string]*job
	order  []string       // submission order, for List
	peak   map[string]int // tenant -> peak concurrent running jobs
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.TotalSoCs <= 0 {
		cfg.TotalSoCs = 32
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	return &Server{
		cfg:  cfg,
		hour: cfg.Hour,
		jobs: map[string]*job{},
		peak: map[string]int{},
	}
}

func (s *Server) quotaFor(tenant string) Quota {
	if q, ok := s.cfg.Quotas[tenant]; ok {
		return q
	}
	return s.cfg.DefaultQuota
}

// SetQuota installs or replaces one tenant's quota and reschedules.
func (s *Server) SetQuota(tenant string, q Quota) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Quotas == nil {
		s.cfg.Quotas = map[string]Quota{}
	}
	s.cfg.Quotas[tenant] = q
	s.rescheduleLocked()
}

// SetHour advances the simulated clock and reschedules: as the tidal
// trace's busy fraction falls, queued jobs pack into the freed window;
// as it rises, preemptible jobs past the shrunken capacity are parked
// at their next epoch boundary (non-preemptible jobs are never
// touched), and no new jobs start past it.
func (s *Server) SetHour(h float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hour = h
	s.rescheduleLocked()
}

// Hour returns the simulated hour of day.
func (s *Server) Hour() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hour
}

// Capacity returns the SoCs available to training right now.
func (s *Server) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Capacity(s.cfg.TotalSoCs, s.cfg.Tidal, s.hour)
}

// Submit admits a job. It returns the job ID immediately; scheduling
// is asynchronous.
func (s *Server) Submit(spec JobSpec) (string, error) {
	if spec.Run == nil {
		return "", fmt.Errorf("server: JobSpec.Run must be set")
	}
	if spec.SoCs <= 0 {
		spec.SoCs = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if spec.SoCs > s.cfg.TotalSoCs {
		return "", fmt.Errorf("server: job wants %d SoCs, cluster has %d: %w",
			spec.SoCs, s.cfg.TotalSoCs, ErrQuotaExceeded)
	}
	if q := s.quotaFor(spec.Tenant); q.MaxSoCs > 0 && spec.SoCs > q.MaxSoCs {
		return "", fmt.Errorf("server: job wants %d SoCs, tenant %q is capped at %d: %w",
			spec.SoCs, spec.Tenant, q.MaxSoCs, ErrQuotaExceeded)
	}
	queued := 0
	for _, j := range s.jobs {
		if j.state == JobQueued {
			queued++
		}
	}
	if queued >= s.cfg.QueueLimit {
		return "", fmt.Errorf("server: %d jobs queued, limit %d: %w", queued, s.cfg.QueueLimit, ErrQueueFull)
	}
	s.seq++
	j := &job{
		id:    fmt.Sprintf("job-%06d", s.seq),
		spec:  spec,
		seq:   s.seq,
		state: JobQueued,
		done:  make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.rescheduleLocked()
	return j.id, nil
}

// rescheduleLocked runs one scheduling round and acts on it. Callers
// hold s.mu.
func (s *Server) rescheduleLocked() {
	if s.closed {
		return
	}
	var pending []schedJob
	var running []schedRunning
	for _, j := range s.jobs {
		sj := schedJob{id: j.id, tenant: j.spec.Tenant, priority: j.spec.Priority, socs: j.spec.SoCs, seq: j.seq}
		switch j.state {
		case JobQueued, JobParked:
			pending = append(pending, sj)
		case JobRunning:
			running = append(running, schedRunning{schedJob: sj, preemptible: j.spec.Preemptible})
		case JobParking:
			running = append(running, schedRunning{schedJob: sj, preemptible: j.spec.Preemptible, parking: true})
		}
	}
	capacity := Capacity(s.cfg.TotalSoCs, s.cfg.Tidal, s.hour)
	d := planSchedule(pending, running, capacity, s.quotaFor)
	for _, id := range d.Park {
		j := s.jobs[id]
		if j == nil || j.state != JobRunning {
			continue
		}
		j.state = JobParking
		j.ctl.park.Store(true)
		j.record(s.hour, "park", d.Why[id])
	}
	for _, id := range d.Start {
		j := s.jobs[id]
		if j == nil || (j.state != JobQueued && j.state != JobParked) {
			continue
		}
		outcome := "admit"
		if j.state == JobParked {
			outcome = "resume"
		}
		j.record(s.hour, outcome, d.Why[id])
		s.startLocked(j)
	}
	for _, p := range pending {
		if j := s.jobs[p.id]; j.state == JobQueued || j.state == JobParked {
			j.record(s.hour, "queue", d.Why[p.id])
		}
	}
}

func (s *Server) startLocked(j *job) {
	if j.state == JobParked {
		j.resumes++
	}
	j.state = JobRunning
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	ctl := &Controller{startEpoch: j.epochs}
	ctl.observe = func(epoch int) {
		s.mu.Lock()
		if epoch+1 > j.epochs {
			j.epochs = epoch + 1
		}
		s.mu.Unlock()
	}
	ctl.resize = func(socs int) {
		if socs < 1 {
			socs = 1
		}
		if socs > s.cfg.TotalSoCs {
			socs = s.cfg.TotalSoCs
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		// Only the live segment may resize, and only while it holds SoCs.
		if j.ctl != ctl || (j.state != JobRunning && j.state != JobParking) || socs == j.spec.SoCs {
			return
		}
		j.record(s.hour, "resize", fmt.Sprintf("from %d to %d SoCs", j.spec.SoCs, socs))
		j.spec.SoCs = socs
		s.rescheduleLocked()
	}
	j.ctl = ctl

	// Peak concurrent running jobs per tenant, for quota assertions.
	n := 0
	for _, other := range s.jobs {
		if other.spec.Tenant == j.spec.Tenant && (other.state == JobRunning || other.state == JobParking) {
			n++
		}
	}
	if n > s.peak[j.spec.Tenant] {
		s.peak[j.spec.Tenant] = n
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		result, err := j.spec.Run(ctx, ctl)
		cancel()
		s.finish(j, result, err)
	}()
}

// finish transitions a job after a segment returns.
func (s *Server) finish(j *job, result any, err error) {
	s.mu.Lock()
	j.cancel = nil
	switch {
	case j.canceled || (err != nil && errors.Is(err, context.Canceled)):
		j.state = JobCanceled
		if err == nil || errors.Is(err, ErrParked) {
			err = context.Canceled
		}
		j.err = err
	case err != nil && errors.Is(err, ErrParked):
		j.state = JobParked
		j.parks++
	case err != nil:
		j.state = JobFailed
		j.err = err
	default:
		j.state = JobDone
		j.result = result
	}
	terminal := j.state.Terminal()
	var onTerminal func()
	if terminal {
		close(j.done)
		onTerminal = j.spec.OnTerminal
	}
	s.rescheduleLocked()
	s.mu.Unlock()
	if onTerminal != nil {
		onTerminal()
	}
}

// Cancel stops a job. Queued and parked jobs cancel immediately;
// running jobs get their context canceled and transition once the
// segment returns. Canceling a terminal job is a no-op.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.state.Terminal() {
		s.mu.Unlock()
		return nil
	}
	j.canceled = true
	var onTerminal func()
	switch j.state {
	case JobQueued, JobParked:
		j.state = JobCanceled
		j.err = context.Canceled
		close(j.done)
		onTerminal = j.spec.OnTerminal
		s.rescheduleLocked()
	default: // running or parking: signal and let finish() transition
		if j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	if onTerminal != nil {
		onTerminal()
	}
	return nil
}

// Wait blocks until the job reaches a terminal state or ctx is done.
// On completion it returns the job's result; for failed or canceled
// jobs it returns the job's error.
func (s *Server) Wait(ctx context.Context, id string) (any, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.result, j.err
}

// Result returns a terminal job's result without blocking.
func (s *Server) Result(id string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if !j.state.Terminal() {
		return nil, fmt.Errorf("server: job %s is %s, not terminal", id, j.state)
	}
	return j.result, j.err
}

func (j *job) statusLocked() Status {
	st := Status{
		ID:         j.id,
		Tenant:     j.spec.Tenant,
		State:      j.state,
		Priority:   j.spec.Priority,
		SoCs:       j.spec.SoCs,
		Epochs:     j.spec.Epochs,
		EpochsDone: j.epochs,
		Parks:      j.parks,
		Resumes:    j.resumes,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Get returns one job's status snapshot.
func (s *Server) Get(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.statusLocked(), nil
}

// List returns every job's status in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].statusLocked())
	}
	return out
}

// PeakRunning reports the highest number of the tenant's jobs that
// were ever running concurrently — the observable a quota test
// asserts on.
func (s *Server) PeakRunning(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak[tenant]
}

// Close cancels every non-terminal job, rejects further submissions,
// and waits for in-flight segments to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	var callbacks []func()
	for _, j := range s.jobs {
		if j.state.Terminal() {
			continue
		}
		j.canceled = true
		switch j.state {
		case JobQueued, JobParked:
			j.state = JobCanceled
			j.err = context.Canceled
			close(j.done)
			if j.spec.OnTerminal != nil {
				callbacks = append(callbacks, j.spec.OnTerminal)
			}
		default:
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
	s.mu.Unlock()
	for _, cb := range callbacks {
		cb()
	}
	s.wg.Wait()
}

// Drain winds the control plane down without abandoning preemptible
// progress: further submissions are rejected, queued jobs and
// non-preemptible running jobs are canceled, and every running
// preemptible job is asked to park through the normal checkpoint path
// — exactly the request a tidal preemption makes — so its state
// survives for a future server generation. Drain waits until every
// in-flight segment has exited; if ctx expires first the stragglers
// are canceled like Close. It returns how many jobs ended parked.
func (s *Server) Drain(ctx context.Context) int {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return s.parkedCount()
	}
	s.closed = true
	var callbacks []func()
	for _, j := range s.jobs {
		switch j.state {
		case JobQueued:
			j.canceled = true
			j.state = JobCanceled
			j.err = context.Canceled
			close(j.done)
			if j.spec.OnTerminal != nil {
				callbacks = append(callbacks, j.spec.OnTerminal)
			}
		case JobRunning, JobParking:
			if j.spec.Preemptible {
				// The park request; the segment checkpoints at its
				// next epoch boundary and returns ErrParked.
				j.state = JobParking
				j.ctl.park.Store(true)
				j.record(s.hour, "park", "drain: the server is shutting down")
			} else {
				j.canceled = true
				if j.cancel != nil {
					j.cancel()
				}
			}
		}
		// JobParked and terminal jobs are left as they are: a parked
		// job's checkpoint is already safe on disk.
	}
	s.mu.Unlock()
	for _, cb := range callbacks {
		cb()
	}

	for !s.quiesced() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for _, j := range s.jobs {
				if (j.state == JobRunning || j.state == JobParking) && j.cancel != nil {
					j.canceled = true
					j.cancel()
				}
			}
			s.mu.Unlock()
		case <-time.After(2 * time.Millisecond):
			continue
		}
		break
	}
	s.wg.Wait()
	return s.parkedCount()
}

// quiesced reports whether no segment is still on the cluster.
func (s *Server) quiesced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.state == JobRunning || j.state == JobParking {
			return false
		}
	}
	return true
}

func (s *Server) parkedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.state == JobParked {
			n++
		}
	}
	return n
}
