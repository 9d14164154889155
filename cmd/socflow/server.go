package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"socflow"
)

// serverCmd is a parsed `socflow server` command line: the multi-tenant
// control plane as a long-lived daemon. Clients (`socflow train
// --server`, `socflow serve --server`, or socflow.Dial) submit training,
// distributed and serving jobs over HTTP/JSON, and the scheduler admits
// them against per-tenant quotas, priorities with checkpoint-based
// preemption, and — with --tidal — the cluster's diurnal idle windows.
// GET /metrics exports every job's registry as Prometheus text; with
// --pprof, /debug/pprof/ serves the daemon's Go runtime profiles beside
// the API.
//
//	socflow server --addr 127.0.0.1:7077 --socs 32 \
//	    --quota team-a=2:16 --quota team-b=1:8 --tidal --start-hour 22
type serverCmd struct {
	cfg   socflow.ServerConfig
	addr  string
	pprof bool
}

// quotaFlags collects repeated --quota tenant=jobs:socs values.
type quotaFlags map[string]socflow.Quota

func (q quotaFlags) String() string { return fmt.Sprint(map[string]socflow.Quota(q)) }

func (q quotaFlags) Set(s string) error {
	tenant, lim, _ := strings.Cut(s, "=")
	jobs, socs, ok := strings.Cut(lim, ":")
	j, jerr := strconv.Atoi(jobs)
	n, nerr := strconv.Atoi(socs)
	if tenant == "" || !ok || jerr != nil || nerr != nil {
		return fmt.Errorf("want tenant=jobs:socs, got %q", s)
	}
	q[tenant] = socflow.Quota{MaxRunningJobs: j, MaxSoCs: n}
	return nil
}

func parseServer(args []string) *serverCmd {
	c := &serverCmd{}
	cfg := &c.cfg
	fs := newFlags("server")
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7077", "listen address")
	fs.IntVar(&cfg.TotalSoCs, "socs", 32, "schedulable cluster size")
	fs.IntVar(&cfg.QueueLimit, "queue", 64, "admission queue limit")
	fs.BoolVar(&cfg.Tidal, "tidal", false, "derate capacity by the diurnal co-location trace")
	fs.Float64Var(&cfg.StartHour, "start-hour", 0, "initial simulated hour of day (with --tidal)")
	fs.IntVar(&cfg.DefaultQuota.MaxRunningJobs, "default-max-jobs", 0, "default per-tenant running-job limit (0 = unlimited)")
	fs.IntVar(&cfg.DefaultQuota.MaxSoCs, "default-max-socs", 0, "default per-tenant SoC limit (0 = unlimited)")
	quotas := quotaFlags{}
	cfg.Quotas = quotas
	fs.Var(quotas, "quota", "per-tenant quota as tenant=jobs:socs (repeatable; 0 = unlimited)")
	fs.BoolVar(&c.pprof, "pprof", false, "serve Go runtime profiles at /debug/pprof/ beside the API")
	fs.Parse(args)
	return c
}

// server serves the control plane until SIGINT or SIGTERM, then parks
// its running preemptible jobs.
func server(args []string) int {
	c := parseServer(args)
	srv := socflow.NewServer(c.cfg)

	// Listen first, so the log names the address actually bound: with
	// --addr 127.0.0.1:0 the kernel picks the port.
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return fail("server", err)
	}
	// Requests share a context that shutdown cancels: an open
	// GET /v1/jobs/{id}/events stream otherwise lasts until its job
	// ends, and would hold Shutdown (and the drain after it) hostage.
	reqCtx, endRequests := context.WithCancel(context.Background())
	hs := &http.Server{
		Handler:     handler(srv, c.pprof),
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	hs.RegisterOnShutdown(endRequests)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	log.Printf("socflow server: listening on %s (%d SoCs, capacity %d, queue %d, tidal %v, pprof %v)",
		ln.Addr(), c.cfg.TotalSoCs, srv.Capacity(), c.cfg.QueueLimit, c.cfg.Tidal, c.pprof)
	if len(c.cfg.Quotas) > 0 {
		log.Printf("socflow server: quotas %s", quotaFlags(c.cfg.Quotas))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return fail("server", err)
	case <-ctx.Done():
	}

	// Graceful teardown: stop accepting, park running preemptible jobs
	// through the checkpoint path so their progress survives a restart,
	// and cancel the rest.
	log.Print("socflow server: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("socflow server: shutdown: %v", err)
	}
	if parked := srv.Drain(shCtx); parked > 0 {
		log.Printf("socflow server: parked %d preemptible job(s) for the next generation", parked)
	}
	return 0
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
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}
