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
# The portable GEMM path against the same oracles. An AVX2 amd64 host
# runs the GEMM in assembly; a 386 build runs the Go kernel, which must
# reproduce the golden losses and fused/unfused bit-identity too, and
# quant's branch-free rounding its reference on a second float→int
# conversion. The arm64 vet keeps the build without assembly compiling.
GOARCH=386 go test -count=1 ./internal/tensor ./internal/quant
GOARCH=386 go test -count=1 -run 'Golden|Fused|BitIdentical' ./internal/nn ./internal/core
GOARCH=arm64 go vet ./...
# Width matrix: the zero-allocation bounds, golden losses, fused≡unfused
# and parallelism-invariance tests must hold at every pool width, not
# just this host's. internal/parallel sizes its pool from GOMAXPROCS at
# init, so the variable is the whole switch. The planner's packages ride
# along for their allocation and simulated-flow bounds and their pinned
# prices.
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
# The fault suite, tidal resizes included. TestExpFig4cINT8Degrades
# matches "Degrade" but measures INT8 accuracy, not a fault, and is by
# far the slowest test of its package under the race detector.
go test -race -skip 'Alloc|Fig4c|Exhaustive' -run 'Fault|Crash|Degrade|Straggle|LinkDrop|Deadline|Close|Resize' \
    . ./internal/runtime ./internal/transport ./internal/exp
# The metrics registry is written to from every worker goroutine at
# once; run its whole suite under the race detector.
go test -race -skip 'Alloc|Exhaustive' -count 2 ./internal/metrics
# The decoders a peer's bytes reach (mesh vectors and tensor sets, and
# checkpoints via rejoin state transfer): every input must decode to
# something that re-encodes to it, or fail with an error, never panic.
go test -run '^$' -fuzz '^FuzzDecodeVector$' -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz '^FuzzDecodeTensors$' -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz '^FuzzReadCheckpoint$' -fuzztime 10s ./internal/core
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
# Serving smoke gate: a low-tide serving window through the facade
# (and over HTTP) must hold >= 99% SLO attainment with deterministic
# reports, under the race detector.
make serve-smoke
# Elastic-recovery chaos gate: seeded randomized fault schedules
# (crash windows, rejoins, stragglers, link drops) must converge or
# tear down cleanly under the race detector — at two scheduler widths,
# because the recovery races are interleaving-dependent.
GOMAXPROCS=2 make chaos
GOMAXPROCS=4 make chaos
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
