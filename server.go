package socflow

import (
	"context"
	"fmt"
	"net/http"

	"socflow/internal/cluster"
	"socflow/internal/server"
)

// Quota bounds one tenant's share of a Server's cluster; zero fields
// mean unlimited.
type Quota = server.Quota

// ServerConfig sizes a control plane.
type ServerConfig struct {
	// TotalSoCs is the schedulable cluster size (default 32, the
	// paper's main setting).
	TotalSoCs int
	// QueueLimit bounds the admission queue (default 64).
	QueueLimit int
	// DefaultQuota applies to tenants absent from Quotas; the zero
	// value is unlimited.
	DefaultQuota Quota
	// Quotas maps tenant name to quota.
	Quotas map[string]Quota
	// Tidal derates capacity by the diurnal utilization trace: at the
	// daytime peak only the idle sliver of the cluster is schedulable,
	// in the night trough nearly all of it — training packs into the
	// idle windows, as in the paper's shared-cluster premise.
	Tidal bool
	// StartHour is the initial simulated hour of day (used with
	// Tidal).
	StartHour float64
}

// Server is a long-lived multi-tenant control plane over the simulated
// SoC-Cluster: jobs submitted through its Client (or its HTTP Handler)
// are queued, quota-checked, priority-scheduled, and — for training
// jobs on the simulated track, whatever their strategy —
// checkpoint-preempted and resumed as capacity ebbs and flows.
type Server struct {
	srv *server.Server
}

// NewServer builds a control plane. Close it when done.
func NewServer(cfg ServerConfig) *Server {
	sc := server.Config{
		TotalSoCs:    cfg.TotalSoCs,
		QueueLimit:   cfg.QueueLimit,
		DefaultQuota: cfg.DefaultQuota,
		Quotas:       cfg.Quotas,
		Hour:         cfg.StartHour,
	}
	if cfg.Tidal {
		tr := cluster.DefaultTidalTrace()
		sc.Tidal = &tr
	}
	return &Server{srv: server.New(sc)}
}

// Client returns a client submitting to this server in-process.
func (s *Server) Client() *Client { return &Client{srv: s.srv} }

// Handler exposes the server over HTTP/JSON — the same API
// `socflow server` serves and `socflow train --server` consumes: POST
// /v1/jobs, GET /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events
// (the job's events as server-sent events), GET /v1/jobs/{id}/trace
// (the job's spans so far as a Chrome trace), GET
// /v1/jobs/{id}/decisions (the scheduler's decision log for the job,
// each admit, queue, park, resume and resize with the figure behind
// it), DELETE /v1/jobs/{id},
// GET /metrics (every job's registry as Prometheus text), GET /healthz.
// A submission is admitted by its kind's own code, the code an
// in-process Client runs, so a bad config is a 400 and never a job. An
// events stream lasts until its job ends or its request's context is
// canceled; a server that shuts down with streams open cancels them
// (`socflow server` does so through http.Server's BaseContext).
func (s *Server) Handler() http.Handler {
	return server.NewHandler(s.srv, func(req server.SubmitRequest) (server.JobSpec, error) {
		k, ok := kinds[req.Kind]
		if !ok {
			return server.JobSpec{}, fmt.Errorf("socflow: unknown job kind %q (want \"train\", \"distributed\", or \"serve\")", req.Kind)
		}
		return k.fromWire(req.Config, runOptions{tenant: req.Tenant, priority: req.Priority})
	})
}

// SetHour advances the simulated clock; with Tidal the scheduler
// repacks queued jobs into whatever the new hour's idle window allows.
func (s *Server) SetHour(h float64) { s.srv.SetHour(h) }

// Hour returns the simulated hour of day.
func (s *Server) Hour() float64 { return s.srv.Hour() }

// Capacity returns the SoCs currently schedulable.
func (s *Server) Capacity() int { return s.srv.Capacity() }

// SetQuota installs or replaces a tenant's quota.
func (s *Server) SetQuota(tenant string, q Quota) { s.srv.SetQuota(tenant, q) }

// List returns every job's status in submission order.
func (s *Server) List() []JobStatus { return s.srv.List() }

// PeakRunning reports the most jobs the tenant ever had running
// concurrently — the observable quota enforcement is asserted on.
func (s *Server) PeakRunning(tenant string) int { return s.srv.PeakRunning(tenant) }

// Close cancels all jobs and shuts the scheduler down.
func (s *Server) Close() { s.srv.Close() }

// Drain shuts the scheduler down gracefully: running preemptible jobs
// are parked through the normal checkpoint path instead of being
// canceled, so their progress survives for the next server process.
// Queued and non-preemptible jobs are canceled. Drain waits for every
// in-flight segment to exit (canceling stragglers when ctx expires)
// and returns how many jobs ended parked.
func (s *Server) Drain(ctx context.Context) int { return s.srv.Drain(ctx) }
