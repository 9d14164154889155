// Command socflow runs SoCFlow on the simulated SoC-Cluster. Each
// subcommand is one way in:
//
//	socflow train   one training job, locally or on a daemon (--server)
//	socflow serve   one inference serving window, locally or on a daemon
//	socflow server  the multi-tenant control plane as a long-lived daemon
//	socflow bench   the paper's evaluation tables and figures (--exp, --list)
//	socflow trace   the deployed fleet's tidal utilization model (Fig. 3)
//
// `socflow <subcommand> -h` lists a subcommand's flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"socflow"
)

var commands = map[string]func(args []string) int{
	"train": train, "serve": serve, "server": server, "bench": bench, "trace": trace,
}

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches to a subcommand and returns the process's exit code;
// a usage error is 2, as package flag has it.
func run(args []string) int {
	if len(args) > 0 && commands[args[0]] != nil {
		return commands[args[0]](args[1:])
	}
	fmt.Fprintln(os.Stderr, "usage: socflow train|serve|server|bench|trace [flags]")
	return 2
}

// newFlags returns a subcommand's flag set: a bad flag exits 2 and -h
// exits 0 from Parse.
func newFlags(name string) *flag.FlagSet {
	return flag.NewFlagSet("socflow "+name, flag.ExitOnError)
}

// fail reports err under the subcommand's name; the exit code is 1.
func fail(name string, err error) int {
	fmt.Fprintf(os.Stderr, "socflow %s: %v\n", name, err)
	return 1
}

// jobFlags binds the flags a training job and a serving window share to
// their config's fields.
func jobFlags(fs *flag.FlagSet, model, dataset *string, socs *int, seed *uint64, gen *string) {
	fs.StringVar(model, "model", "vgg11", "model: "+strings.Join(socflow.Models(), "|"))
	fs.StringVar(dataset, "dataset", "cifar10", "dataset: "+strings.Join(socflow.Datasets(), "|"))
	fs.IntVar(socs, "socs", 32, "cluster size")
	fs.Uint64Var(seed, "seed", 1, "random seed")
	fs.StringVar(gen, "gen", "sd865", "SoC generation: sd865|sd8gen1")
}

// submitter is where a training job or a serving window runs: the
// daemon at --server, or a private in-process control plane.
type submitter struct {
	url, tenant string
	priority    int
}

func submitFlags(fs *flag.FlagSet) *submitter {
	s := &submitter{}
	fs.StringVar(&s.url, "server", "", "submit to a socflow server daemon at this base URL instead of running locally")
	fs.StringVar(&s.tenant, "tenant", "", "tenant name for the daemon's quota accounting (with --server)")
	fs.IntVar(&s.priority, "priority", 0, "scheduling priority; higher may preempt (with --server)")
	return s
}

// client returns the one client both job kinds submit through, and the
// options that place a job on it. A local job gets a private server
// whose whole cluster of socs SoCs is its own; release closes it.
func (s *submitter) client(socs int) (cl *socflow.Client, opts []socflow.Option, release func()) {
	opts = []socflow.Option{socflow.WithTenant(s.tenant), socflow.WithPriority(s.priority)}
	if s.url != "" {
		return socflow.Dial(s.url), opts, func() {}
	}
	srv := socflow.NewServer(socflow.ServerConfig{TotalSoCs: socs})
	return srv.Client(), opts, srv.Close
}

// submitted announces a job handed to the daemon.
func (s *submitter) submitted(id string) {
	if s.url != "" {
		fmt.Printf("submitted %s to %s (tenant %q, priority %d)\n", id, s.url, s.tenant, s.priority)
	}
}

// writeOut creates path and fills it with write; an empty path writes
// nothing.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
