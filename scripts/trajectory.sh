#!/bin/sh
# The performance trajectory as a table: one row per (PR, workload,
# metric) from every BENCH_PR<n>.json at the root of the repo, the
# tables scripts/ab.sh writes with AB_JSON=FILE. A PR's file may hold
# several tables (say, one per BENCH_ARGS); each gives its own rows.
#
#   scripts/trajectory.sh [workload]
#
# A row shows the ratio change/parent of the two medians, the pairs the
# change won, the verdict, and whether the result digests matched. Only
# ratios are shown: the two sides of one table ran in alternation on one
# host, while different files ran on whatever host and load their PR
# had, so raw medians are never compared across files.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
printf '%-4s %-14s %-12s %-22s %9s %7s  %-10s %s\n' PR workload bench_args metric ratio won verdict digests
for f in "$repo"/BENCH_PR*.json; do
    [ -e "$f" ] || continue
    n=${f##*/BENCH_PR}
    echo "${n%.json} $f"
done | sort -n | while read -r pr f; do
    awk -v pr="$pr" -v only="${1:-}" '
        # str/num NAME: the value of the first "NAME": on the line.
        function str(name) {
            if (!match($0, "\"" name "\": \"[^\"]*\"")) return ""
            return substr($0, RSTART + length(name) + 5, RLENGTH - length(name) - 6)
        }
        function num(name) {
            if (!match($0, "\"" name "\": [-+0-9.eE]+")) return ""
            return substr($0, RSTART + length(name) + 4, RLENGTH - length(name) - 4)
        }
        /^\{"parent"/   { args = str("bench_args"); if (args == "") args = "-" }
        /^\{"workload"/ { w = str("workload"); digests = $0 ~ /"digest_equal": true/ ? "equal" : "DIFFER" }
        /^\{"metric"/ && (only == "" || only == w) {
            printf "%-4s %-14s %-12s %-22s %9s %7s  %-10s %s\n", pr, w, args, str("metric"),
                "x" num("ratio"), num("won") "/" num("pairs"), str("verdict"), digests
        }' "$f"
done
