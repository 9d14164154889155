// Command socflow-server runs the multi-tenant control plane as a
// long-lived daemon: clients (socflow-train --server, or socflow.Dial)
// submit training, distributed and serving jobs over HTTP/JSON, and the
// scheduler admits them against per-tenant quotas, priorities with
// checkpoint-based preemption, and — with --tidal — the cluster's
// diurnal idle windows. GET /metrics exports every job's registry as
// Prometheus text; with --pprof, /debug/pprof/ serves the daemon's Go
// runtime profiles beside the API.
//
// Example:
//
//	socflow-server --addr 127.0.0.1:7077 --socs 32 \
//	    --quota team-a=2:16 --quota team-b=1:8 --tidal --start-hour 22
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"socflow"
)

// quotaFlags collects repeated --quota tenant=jobs:socs values.
type quotaFlags map[string]socflow.Quota

func (q quotaFlags) String() string {
	parts := make([]string, 0, len(q))
	for t, v := range q {
		parts = append(parts, fmt.Sprintf("%s=%d:%d", t, v.MaxRunningJobs, v.MaxSoCs))
	}
	return strings.Join(parts, ",")
}

func (q quotaFlags) Set(s string) error {
	tenant, lim, ok := strings.Cut(s, "=")
	if !ok || tenant == "" {
		return fmt.Errorf("want tenant=jobs:socs, got %q", s)
	}
	jobsStr, socsStr, ok := strings.Cut(lim, ":")
	if !ok {
		return fmt.Errorf("want tenant=jobs:socs, got %q", s)
	}
	jobs, err := strconv.Atoi(jobsStr)
	if err != nil {
		return fmt.Errorf("jobs limit in %q: %v", s, err)
	}
	socs, err := strconv.Atoi(socsStr)
	if err != nil {
		return fmt.Errorf("socs limit in %q: %v", s, err)
	}
	q[tenant] = socflow.Quota{MaxRunningJobs: jobs, MaxSoCs: socs}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address")
	socs := flag.Int("socs", 32, "schedulable cluster size")
	queue := flag.Int("queue", 64, "admission queue limit")
	tidal := flag.Bool("tidal", false, "derate capacity by the diurnal co-location trace")
	startHour := flag.Float64("start-hour", 0, "initial simulated hour of day (with --tidal)")
	defJobs := flag.Int("default-max-jobs", 0, "default per-tenant running-job limit (0 = unlimited)")
	defSoCs := flag.Int("default-max-socs", 0, "default per-tenant SoC limit (0 = unlimited)")
	quotas := quotaFlags{}
	flag.Var(quotas, "quota", "per-tenant quota as tenant=jobs:socs (repeatable; 0 = unlimited)")
	withPprof := flag.Bool("pprof", false, "serve Go runtime profiles at /debug/pprof/ beside the API")
	flag.Parse()

	srv := socflow.NewServer(socflow.ServerConfig{
		TotalSoCs:    *socs,
		QueueLimit:   *queue,
		DefaultQuota: socflow.Quota{MaxRunningJobs: *defJobs, MaxSoCs: *defSoCs},
		Quotas:       quotas,
		Tidal:        *tidal,
		StartHour:    *startHour,
	})

	// Listen first, so the log names the address actually bound: with
	// --addr 127.0.0.1:0 the kernel picks the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("socflow-server: %v", err)
	}
	// Requests share a context that shutdown cancels: an open
	// GET /v1/jobs/{id}/events stream otherwise lasts until its job
	// ends, and would hold Shutdown (and the drain after it) hostage.
	reqCtx, endRequests := context.WithCancel(context.Background())
	hs := &http.Server{
		Handler:     handler(srv, *withPprof),
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	hs.RegisterOnShutdown(endRequests)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	log.Printf("socflow-server: listening on %s (%d SoCs, capacity %d, queue %d, tidal %v, pprof %v)",
		ln.Addr(), *socs, srv.Capacity(), *queue, *tidal, *withPprof)
	if len(quotas) > 0 {
		log.Printf("socflow-server: quotas %s", quotas)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("socflow-server: %v", err)
	case <-ctx.Done():
	}

	// Graceful teardown: stop accepting, park running preemptible jobs
	// through the checkpoint path so their progress survives a restart,
	// and cancel the rest.
	log.Print("socflow-server: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("socflow-server: shutdown: %v", err)
	}
	if parked := srv.Drain(shCtx); parked > 0 {
		log.Printf("socflow-server: parked %d preemptible job(s) for the next generation", parked)
	}
}

// handler is the daemon's API, with net/http/pprof's endpoints mounted
// beside it when withPprof is set. They are off by default: a profile
// exposes the process's internals to anyone who can reach the port.
func handler(srv *socflow.Server, withPprof bool) http.Handler {
	if !withPprof {
		return srv.Handler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
