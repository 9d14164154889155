GO ?= go

.PHONY: all build vet test race chaos bench bench-smoke bench-report bench-elastic server-smoke serve-smoke bench-colocation ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every -race target passes -skip Alloc (…ZeroAlloc, …Allocations,
# …DoesNotAllocate, …DoNotAllocate): sync.Pool drops items at random
# under the race detector, so allocation counts are checked by the
# non-race width matrix in scripts/ci.sh instead.
RACE = $(GO) test -race -skip Alloc

# The race-detector package list; scripts/ci.sh runs this target.
race:
	$(RACE) ./ ./internal/parallel ./internal/tensor ./internal/nn \
		./internal/core ./internal/runtime ./internal/transport ./internal/metrics \
		./internal/serve ./internal/server ./internal/plan ./internal/dataset

# Seeded chaos suite: randomized crash/straggle/link-drop/rejoin
# schedules against the elastic recovery track, under the race
# detector. Every schedule must converge or tear down cleanly with
# worker-named errors.
chaos:
	$(RACE) -run 'TestChaos|TestElastic' -count 1 ./internal/runtime

# Control-plane smoke gate: a socflow-server daemon handler takes jobs
# from two tenants over real HTTP under the race detector, asserting
# completion, per-tenant quota enforcement, and deterministic reports.
server-smoke:
	$(RACE) -run TestServerSmoke -count 1 .

# Serving smoke gate: a low-tide serving window through the facade must
# hold >= 99% SLO attainment with deterministic reports, under the race
# detector (the batcher, replay loop, and pipeline engine all engage).
serve-smoke:
	$(RACE) -run 'TestServeSmoke|TestServeOverHTTP' -count 1 .

# Benchmark build-and-run smoke (~5 s): the repo benchmark the driver
# runs (BENCHMARK.json) must build and complete one tiny pass of every
# workload, so a broken benchmark is caught here first. --smoke shrinks
# the workloads; --seconds shrinks each timed loop from its 10 s.
bench-smoke:
	$(GO) run ./benchmark --smoke --seconds 0.2

# The repo benchmark in full: two untraced passes that must agree within
# the benchmark's own bounds, then a traced one (benchmark/README.md).
bench:
	./benchmark/run.sh

# Elastic-recovery experiment: tidal-trace preemption + return against
# the heartbeat/retry/rejoin machinery, with the degrade→rejoin curve
# and recovery counters in the emitted report.
bench-elastic:
	$(GO) run ./cmd/socflow-bench --exp elastic --samples 480 --epochs 8 \
		--metrics-out BENCH_pr5.json

# Scalability experiment with the observability subsystem on: emits the
# structured run report (tables + metrics snapshot) and a Perfetto-
# loadable Chrome trace.
# Co-location experiment: the SLO-batched serving plane resizes with
# the diurnal tide on one control plane while preemptible training
# parks and resumes underneath it; emits the hourly sweep, serving
# quantiles, SLO attainment, and training throughput as BENCH_pr8.json.
bench-colocation:
	$(GO) run ./cmd/socflow-bench --exp colocation --samples 480 \
		--metrics-out BENCH_pr8.json

bench-report:
	$(GO) run ./cmd/socflow-bench --exp scalability --samples 480 --epochs 6 \
		--metrics-out BENCH_pr3.json --trace-out BENCH_pr3.trace.json

# One gate list: scripts/ci.sh is the single definition of CI.
ci:
	./scripts/ci.sh
