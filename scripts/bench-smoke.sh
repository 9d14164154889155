#!/bin/sh
# The benchmark's build-and-run smoke, run the way BENCHMARK.json's
# command is run: benchmark/bench.sh in a fresh export of the working
# tree (no .git, no earlier .bench_build), so the build starts from an
# empty cache, stamps no commit, and reads nothing the checkout lacks.
#
#   scripts/bench-smoke.sh
#
# Fails if the build fails, if any workload's one tiny pass fails, or if
# a process of the export's benchmark binary is still running once
# bench.sh has returned.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/socflow-bench-smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

(cd "$repo" && tar -cf - --exclude=./.git --exclude=./.bench_build --exclude=./benchmark/out .) | tar -xf - -C "$tmp"
"$tmp/benchmark/bench.sh" --smoke --seconds 0.2

bin="$tmp/.bench_build/benchmark"
if pgrep -f "^$bin" >/dev/null; then # command lines that start with the binary
    echo "bench-smoke: processes of $bin still running after bench.sh returned:" >&2
    pgrep -a -f "^$bin" >&2
    exit 1
fi
