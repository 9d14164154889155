package main

import (
	"reflect"
	"strings"
	"testing"

	"socflow"
	"socflow/internal/exp"
)

// TestFlagsBuildConfigs pins what each subcommand's flags build,
// defaults included. The CLI's defaults differ from the facade's on
// purpose: train runs 12 epochs over 960 samples in 8 groups with mixed
// precision on auto; serve runs 2 stages at a batch cap of 8.
func TestFlagsBuildConfigs(t *testing.T) {
	trainCfg := func(edit func(*socflow.Config)) socflow.Config {
		c := socflow.Config{Strategy: "socflow", NumSoCs: 32, Groups: 8, Mixed: "auto", Generation: "sd865"}
		c.Model, c.Dataset, c.Epochs, c.TrainSamples, c.Seed = "vgg11", "cifar10", 12, 960, 1
		if edit != nil {
			edit(&c)
		}
		return c
	}
	serveCfg := func(edit func(*socflow.ServeConfig)) socflow.ServeConfig {
		c := socflow.ServeConfig{Model: "vgg11", Dataset: "cifar10", Stages: 2, MaxBatch: 8, MaxQueueDelay: 0.05,
			SLO: 0.5, PeakRPS: 20, Hours: 24, NumSoCs: 32, Samples: 256, Seed: 1, Generation: "sd865"}
		if edit != nil {
			edit(&c)
		}
		return c
	}
	serverCfg := func(edit func(*socflow.ServerConfig)) socflow.ServerConfig {
		c := socflow.ServerConfig{TotalSoCs: 32, QueueLimit: 64, Quotas: map[string]socflow.Quota{}}
		if edit != nil {
			edit(&c)
		}
		return c
	}
	train := func(args string) socflow.Config {
		c, err := parseTrain(strings.Fields(args))
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		return c.cfg
	}
	serve := func(args string) socflow.ServeConfig { return parseServe(strings.Fields(args)).cfg }
	server := func(args string) socflow.ServerConfig { return parseServer(strings.Fields(args)).cfg }
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"train defaults", train(""), trainCfg(nil)},
		{"train flags", train("--model lenet5 --dataset fmnist --strategy ring --socs 16 --groups 4 --mixed fp32 " +
			"--epochs 3 --batch 32 --samples 240 --target 0.5 --seed 7 --gen sd8gen1"), trainCfg(func(c *socflow.Config) {
			c.Model, c.Dataset, c.Strategy, c.NumSoCs, c.Groups, c.Mixed = "lenet5", "fmnist", "ring", 16, 4, "fp32"
			c.Epochs, c.GlobalBatch, c.TrainSamples, c.TargetAccuracy, c.Seed, c.Generation = 3, 32, 240, 0.5, 7, "sd8gen1"
		})},
		{"train on a daemon", train("--server http://127.0.0.1:7077 --tenant a --priority 3"), trainCfg(nil)},
		{"serve defaults", serve(""), serveCfg(nil)},
		{"serve flags", serve("--model lenet5 --dataset fmnist --stages 3 --max-batch 4 --max-delay 0.1 --slo 1 " +
			"--peak-rps 5 --start-hour 22 --hours 2 --socs 8 --samples 64 --checkpoint-dir ck --seed 3 --gen sd8gen1 " +
			"--server http://x --tenant a --priority 2 --json"), serveCfg(func(c *socflow.ServeConfig) {
			c.Model, c.Dataset, c.Stages, c.MaxBatch, c.MaxQueueDelay, c.SLO = "lenet5", "fmnist", 3, 4, 0.1, 1
			c.PeakRPS, c.StartHour, c.Hours, c.NumSoCs, c.Samples = 5, 22, 2, 8, 64
			c.CheckpointDir, c.Seed, c.Generation = "ck", 3, "sd8gen1"
		})},
		{"server defaults", server(""), serverCfg(nil)},
		{"server flags", server("--addr :0 --socs 16 --queue 8 --tidal --start-hour 22 --default-max-jobs 2 " +
			"--default-max-socs 8 --quota a=2:16 --quota b=1:8 --pprof"), serverCfg(func(c *socflow.ServerConfig) {
			c.TotalSoCs, c.QueueLimit, c.Tidal, c.StartHour = 16, 8, true, 22
			c.DefaultQuota = socflow.Quota{MaxRunningJobs: 2, MaxSoCs: 8}
			c.Quotas = map[string]socflow.Quota{"a": {MaxRunningJobs: 2, MaxSoCs: 16}, "b": {MaxRunningJobs: 1, MaxSoCs: 8}}
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !reflect.DeepEqual(tc.got, tc.want) {
				t.Fatalf("parsed into\n%+v\nwant\n%+v", tc.got, tc.want)
			}
		})
	}
}

// TestParseKeepsLocalSettings pins the flags that stay in this process:
// train's execution options, serve's --json, the daemon's address and
// pprof switch, and where a job is submitted.
func TestParseKeepsLocalSettings(t *testing.T) {
	tr, err := parseTrain(strings.Fields("--parallel 4 --trace --metrics-out m.json --trace-out t.json"))
	if err != nil || tr.parallel != 4 || !tr.trace || tr.metricsOut != "m.json" || tr.traceOut != "t.json" || tr.sub.url != "" {
		t.Fatalf("train: %+v, %v", tr, err)
	}
	tr, err = parseTrain(strings.Fields("--server http://h:1 --tenant a --priority 3"))
	if err != nil || *tr.sub != (submitter{url: "http://h:1", tenant: "a", priority: 3}) {
		t.Fatalf("train submit flags: %+v, %v", tr.sub, err)
	}
	if sv := parseServe([]string{"--json"}); !sv.jsonOut || sv.sub.url != "" {
		t.Fatalf("serve: %+v", sv)
	}
	if d := parseServer(nil); d.addr != "127.0.0.1:7077" || d.pprof {
		t.Fatalf("server defaults: %+v", d)
	}
	if d := parseServer(strings.Fields("--addr :0 --pprof")); d.addr != ":0" || !d.pprof {
		t.Fatalf("server flags: %+v", d)
	}
	b := parseBench(strings.Fields("--exp fig3 --full --samples 64 --epochs 2 --socs 8 --groups 2 --seed 3"))
	want := exp.Options{TrainSamples: 64, Epochs: 2, NumSoCs: 8, Groups: 2, Seed: 3}
	if b.ids != "fig3" || !b.full || b.list || b.opts != want {
		t.Fatalf("bench: %+v", b)
	}
	if b := parseBench(nil); b.ids != "" || b.full || b.list || b.opts != (exp.Options{}) || b.metricsOut != "" || b.traceOut != "" {
		t.Fatalf("bench defaults: %+v", b)
	}
}

// TestTrainRefusesLocalFlagsWithServer: a daemon never receives train's
// execution options, so asking for one together with --server is a
// usage error at parse time, naming the flag, before any job is sent.
func TestTrainRefusesLocalFlagsWithServer(t *testing.T) {
	for _, f := range []string{"--parallel 2", "--parallel 0", "--trace", "--metrics-out m.json", "--trace-out t.json"} {
		args := strings.Fields("--server http://127.0.0.1:1 " + f)
		if _, err := parseTrain(args); err == nil || !strings.Contains(err.Error(), strings.Fields(f)[0]) {
			t.Errorf("%v: err = %v, want a refusal naming %s", args, err, strings.Fields(f)[0])
		}
		if code := run(append([]string{"train"}, args...)); code != 2 {
			t.Errorf("socflow train %v exited %d, want 2", args, code)
		}
	}
}

// TestUsageErrorsExitTwo: an unknown subcommand or experiment id is a
// usage error, reported before anything runs. (A bad flag exits 2 from
// package flag itself.)
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nope"},
		{"bench", "--exp", "nope"},
		{"bench", "--exp", "fig3,nope"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("socflow %v exited %d, want 2", args, code)
		}
	}
}
