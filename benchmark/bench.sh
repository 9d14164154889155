#!/usr/bin/env bash
# What BENCHMARK.json runs: build the benchmark inside the checkout and
# hand it the arguments. .bench_build/ holds the binary, Go's build cache
# and its temporary files, so nothing outside the checkout is read or
# written, and only the first call pays for the build.
#
#   benchmark/bench.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
set -euo pipefail
cd "$(dirname "$0")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark # stamps the commit into the binary
exec "$build/benchmark" "$@"
