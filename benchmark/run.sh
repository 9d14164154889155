#!/usr/bin/env bash
# The benchmark's noise test and full record: run the untraced pass
# twice, check that the two runs agree within the benchmark's own bounds,
# then run the traced pass. bench.sh builds on the first call only. The
# traced pass runs even when the two runs disagree; the exit code says
# whether they did.
#
#   benchmark/run.sh [seed]
#
# Leaves benchmark/out/{results.json,layers.json,trace-<workload>.json}.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
out=benchmark/out
bench=benchmark/bench.sh

"$bench" --seed "$seed" --out "$out/first"
"$bench" --seed "$seed" --out "$out"
agree=0
"$bench" --compare "$out/first/results.json" "$out/results.json" || agree=$?
"$bench" --seed "$seed" --trace --out "$out"
exit "$agree"
