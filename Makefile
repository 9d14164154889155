GO ?= go

.PHONY: all build vet test race chaos bench bench-smoke server-smoke serve-smoke ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every -race target passes -skip 'Alloc|Exhaustive'. Alloc (…ZeroAlloc,
# …Allocations, …DoesNotAllocate, …DoNotAllocate): sync.Pool drops items
# at random under the race detector, so allocation counts are checked by
# the non-race width matrix in scripts/ci.sh instead. Exhaustive: a sweep
# of ~10^8 float32 inputs is pure arithmetic with nothing to race, and
# would take minutes under the detector; the width matrix runs it.
RACE = $(GO) test -race -skip 'Alloc|Exhaustive'

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

# One gate list: scripts/ci.sh is the single definition of CI.
ci:
	./scripts/ci.sh
