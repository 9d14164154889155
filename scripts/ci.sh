#!/bin/sh
# CI gate: vet, gofmt, build, full tests, the pool-width matrix, and a
# race-detector pass over every package the parallel execution engine
# touches, plus a dedicated race run of the fault-injection scenarios
# (crash teardown, heartbeat-detected recovery from crashes, transport
# deadlines) in internal/runtime, internal/transport and the
# experiments that replay them (internal/exp: --exp faults).
set -eux

go vet ./...
test -z "$(gofmt -l .)"
go build ./...
go test ./...
# The portable GEMM, abs-max, tanh and NPU-emulation paths against the
# same oracles. An AVX2 amd64 host runs the GEMM, Tensor.AbsMax, the
# Tanh layer and quant's fake-quantize and Int8SGD update in assembly;
# a 386 build runs the Go loops, which must reproduce the golden
# losses, fused/unfused bit-identity and math.Tanh's bits too, and
# quant's branch-free rounding and update the lane tests' references
# on a second float→int conversion.
# go vet's asmdecl checks every .s file against its Go declarations; the
# arm64 vet keeps the build without assembly compiling.
GOARCH=386 go test -count=1 ./internal/tensor ./internal/quant
GOARCH=386 go test -count=1 -run 'Golden|Fused|BitIdentical|Tanh' ./internal/nn ./internal/core
GOARCH=arm64 go vet ./...
# Width matrix: the zero-allocation bounds, golden losses, fused≡unfused
# and parallelism-invariance tests must hold at every pool width, not
# just this host's. internal/parallel sizes its pool from GOMAXPROCS at
# init, and the pool width is how many training groups or federated
# clients run at once (kernels run on their caller at every width). The
# planner's packages ride along for their allocation and simulated-flow
# bounds and their pinned prices.
for w in 1 2 4 8; do
    GOMAXPROCS=$w go test -count=1 . ./internal/parallel ./internal/tensor \
        ./internal/nn ./internal/serve ./internal/quant ./internal/core \
        ./internal/plan ./internal/simnet ./internal/collective
done
# Every -race invocation, here and in the Makefile, passes -skip
# 'Alloc|Exhaustive': sync.Pool drops a quarter of its Puts under the
# race detector, so an allocation count is not a property the race build
# can check, and an exhaustive float32 sweep is pure arithmetic that the
# detector would slow to minutes. The width matrix above owns those tests.
make race
# Each SoCFlow group ends its own epoch (α probe and Eq. 5 merge) inside
# the group fan-out, so those steps interleave across groups; make race
# only runs at this host's width. Race the invariance and mixed-precision
# tests at one and at four schedulers, as the chaos gate does below.
GOMAXPROCS=1 go test -race -skip 'Alloc|Exhaustive' -run 'ParallelismInvariance|Mixed' . ./internal/core
GOMAXPROCS=4 go test -race -skip 'Alloc|Exhaustive' -run 'ParallelismInvariance|Mixed' . ./internal/core
# Replay hands served batches, in chunks, to one worker per width step,
# each on the engine's model or an eval twin sharing its weights and
# batch-norm statistics; race it at one and at four schedulers.
GOMAXPROCS=1 go test -race -skip 'Alloc|Exhaustive' -run 'Replay|Serve' . ./internal/serve
GOMAXPROCS=4 go test -race -skip 'Alloc|Exhaustive' -run 'Replay|Serve' . ./internal/serve
# core.RunStrategies trains each distinct training of a grid row once
# and prices every member on its own; FedSGD fans its clients out inside
# the shared training. Race the shared-equals-solo test and the grid
# pins at one and at four schedulers.
GOMAXPROCS=1 go test -race -skip 'Alloc|Exhaustive' -run 'SharedRunsMatchSolo|GridTablesArePinned|GridIsPinned' ./internal/core ./internal/exp
GOMAXPROCS=4 go test -race -skip 'Alloc|Exhaustive' -run 'SharedRunsMatchSolo|GridTablesArePinned|GridIsPinned' ./internal/core ./internal/exp
# The fault suite, tidal resizes included. TestExpFig4cINT8Degrades
# matches "Degrade" but measures INT8 accuracy, not a fault, and is by
# far the slowest test of its package under the race detector.
go test -race -skip 'Alloc|Fig4c|Exhaustive' -run 'Fault|Crash|Degrade|Straggle|LinkDrop|Deadline|Close|Resize' \
    . ./internal/runtime ./internal/transport ./internal/exp
# The metrics registry is written to from every worker goroutine at
# once; run its whole suite under the race detector.
go test -race -skip 'Alloc|Exhaustive' -count 2 ./internal/metrics
# The decoders a peer's bytes reach (TCP frames, mesh vectors and tensor
# sets, and checkpoints via rejoin state transfer): every input must
# decode to something that re-encodes to it, or fail with an error,
# never panic. The frame reader must also allocate in proportion to the
# bytes that arrived, and the byte tensor-set decoder agree with the
# stream one (tensor.ReadSet) on every input.
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz '^FuzzDecodeVector$' -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz '^FuzzDecodeTensors$' -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz '^FuzzReadCheckpoint$' -fuzztime 10s ./internal/core
# What a daemon submission reaches before a job exists: any body, for
# every job kind, is admitted or refused with one of errors.go's
# sentinels (the daemon's 400), never a panic.
go test -run '^$' -fuzz '^FuzzAdmitWire$' -fuzztime 10s .
# A hand-built plan (WithPlan, DistConfig.Plan): Validate never panics,
# and every plan it accepts prices through the planner without a panic.
go test -run '^$' -fuzz '^FuzzPlanValidate$' -fuzztime 10s ./internal/plan
# The delta simulation against the from-scratch water-filling it
# replaced: small two-tier topologies with capacities of 1-4, so shares
# tie across components; every FinishAt bit-equal.
go test -run '^$' -fuzz '^FuzzSimulateMatchesReference$' -fuzztime 10s ./internal/simnet
# Both GEMM kernels against the naive loops, with NaN/Inf/-0 injected:
# every result bit-equal.
go test -run '^$' -fuzz '^FuzzGEMMMatchesNaive$' -fuzztime 10s ./internal/tensor
# The row-wise im2col/col2im against the per-element loops, any window
# geometry, with NaN/Inf/-0 planted: every result bit-equal, no write
# outside an operand.
go test -run '^$' -fuzz '^FuzzIm2ColMatchesNaive$' -fuzztime 10s ./internal/tensor
# Control-plane smoke gate: daemon + two tenants' jobs over HTTP with
# quota enforcement, under the race detector.
make server-smoke
# The socflow binary end to end: `socflow server` on a port the kernel
# picks takes a training job from `socflow train --server` and a serving
# window from `socflow serve --server`, refuses at submit a config it
# could never run (naming the sentinel), train refuses --server with a
# local-only flag at parse time, and the daemon stops cleanly on SIGINT.
timeout 300 scripts/binaries.sh
# Serving smoke gate: a low-tide serving window through the facade
# (and over HTTP) must hold >= 99% SLO attainment with deterministic
# reports, under the race detector.
make serve-smoke
# Elastic-recovery chaos gate: seeded randomized fault schedules
# (crash windows, rejoins, stragglers, link drops) must converge or
# tear down cleanly under the race detector — at four scheduler widths,
# because the recovery races are interleaving-dependent.
GOMAXPROCS=1 make chaos
GOMAXPROCS=2 make chaos
GOMAXPROCS=4 make chaos
GOMAXPROCS=8 make chaos
# The tidal-shrink reclaim used to hang intermittently (a written-out
# node parked on a live peer was never woken); hammer it.
go test -run 'TestElasticPipelineTidalShrink' -count 30 ./internal/runtime
# The repo benchmark must build and run before the driver finds out.
make bench-smoke
# The non-test code line count (scripts/loc.sh has the per-package
# breakdown), the figure a simplicity change moves.
scripts/loc.sh | tail -n 1
# CI must leave the tree as it found it.
git diff --exit-code
