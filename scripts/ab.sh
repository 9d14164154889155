#!/bin/sh
# Paired A/B run of the repo benchmark: the measurement a performance
# claim rests on (ROADMAP ground rule ii, the choosing-metrics guide §8).
#
#   scripts/ab.sh PARENT CHANGE [workload...]
#
# PARENT and CHANGE are git revisions, or directories (a working tree is
# copied as it stands, without .git and without build output). Both are
# exported into temporary directories and each builds its own benchmark
# there, exactly as the acceptance driver does; nothing is written in
# either original tree. For every workload (default: all of
# BENCHMARK.json's) benchmark/bench.sh runs for ten alternating pairs,
# the side that goes first flipping every pair, at the benchmark's own
# run length. Per end-to-end metric it prints each side's median and
# quartiles (Python's statistics.quantiles, as benchmark/stats.go), the
# pairs CHANGE won, and a verdict:
#
#   gain        CHANGE better in >= 9/10 of the pairs and the medians
#               differ by more than PARENT's interquartile distance
#   ok          CHANGE's median no worse than PARENT's by more than the
#               metric's BENCHMARK.json bound
#   unresolved  within the bound, but PARENT's own spread exceeds it
#   REGRESSED   worse than the bound: exit status 1
#
# The result_digest and failed-operation count of every run are compared
# across the sides and reported per workload (a simplicity or
# performance change must move neither).
#
# BENCH_ARGS, if set, is passed on to every bench.sh run, e.g.
# BENCH_ARGS='--seed 2' for the same pairs on another input.
#
# AB_JSON=FILE also writes the printed table to FILE as data: both
# revisions (as given, and the commit each names), nproc, BENCH_ARGS,
# the pair count, and per workload the digest comparison and per metric
# each side's median and quartiles, the ratio, the pairs won and the
# verdict. If FILE already holds tables, this one is appended, so one
# change's runs share a file (BENCH_PR<n>.json at the root;
# scripts/trajectory.sh reads them). One object per line, for awk.
set -eu

pairs=10

if [ $# -lt 2 ]; then
    echo "usage: scripts/ab.sh PARENT CHANGE [workload...]   (git revisions or directories)" >&2
    exit 2
fi
parent=$1 change=$2
shift 2
repo=$(cd "$(dirname "$0")/.." && pwd)
spec="$repo/BENCHMARK.json"

if [ $# -eq 0 ]; then
    set -- $(sed -n 's/.*{"name": "\([a-z-]*\)", "why".*/\1/p' "$spec")
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/socflow-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

# export_tree REV_OR_DIR DEST
export_tree() {
    mkdir -p "$2"
    if [ -d "$1" ]; then
        (cd "$1" && tar -cf - --exclude=./.git --exclude=./.bench_build --exclude=./benchmark/out .) | tar -xf - -C "$2"
    else
        (cd "$repo" && git archive "$1") | tar -xf - -C "$2"
    fi
}
export_tree "$parent" "$tmp/parent"
export_tree "$change" "$tmp/change"

# run_side SIDE WORKLOAD: one bench.sh run; appends each metric to
# $tmp/WORKLOAD.METRIC.SIDE and "DIGEST failed=N" to $tmp/WORKLOAD.digest.SIDE.
run_side() {
    log="$tmp/$2.$1.log"
    if ! (cd "$tmp/$1" && bash benchmark/bench.sh --workload "$2" --out "$tmp/out-$1" ${BENCH_ARGS:-}) >"$log" 2>&1; then
        cat "$log" >&2
        echo "ab.sh: $1 failed on $2" >&2
        exit 1
    fi
    sed -n 's/.* failed=\([0-9]*\) digest=\([0-9a-f]*\) .*/\2 failed=\1/p' "$log" >>"$tmp/$2.digest.$1"
    # The run's last line is one JSON object: {"metrics":{NAME:{"value":V,...},...}}.
    tail -n 1 "$log" | tr '{,' '\n\n' | awk -v name= -v out="$tmp/$2" -v side="$1" '
        /^"[a-z_]*":$/ { name = substr($0, 2, length($0) - 3); next }
        /^"value":/ && name != "" { print substr($0, 9) >> (out "." name "." side); name = "" }'
}

json=${AB_JSON:+$tmp/table.json}
# commit REV_OR_DIR: the commit a git revision names; a directory has none.
commit() {
    if [ -d "$1" ]; then echo; else (cd "$repo" && git rev-parse --verify -q "$1^{commit}") || echo; fi
}
if [ -n "$json" ]; then
    printf '{"parent": "%s", "parent_commit": "%s", "change": "%s", "change_commit": "%s", "nproc": %s, "bench_args": "%s", "pairs": %s, "workloads": [\n' \
        "$parent" "$(commit "$parent")" "$change" "$(commit "$change")" "$(nproc)" "${BENCH_ARGS:-}" "$pairs" >"$json"
fi

status=0
first=1
for w; do
    echo "== $w: $pairs alternating pairs, parent=$parent change=$change ${BENCH_ARGS:-}"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run_side "$side" "$w"; done
        i=$((i + 1))
    done
    if [ "$(sort -u "$tmp/$w.digest.parent" "$tmp/$w.digest.change" | wc -l)" -ne 1 ]; then
        equal=false
        echo "   result_digest/failed DIFFER: parent $(sort -u "$tmp/$w.digest.parent" | tr '\n' ' ')change $(sort -u "$tmp/$w.digest.change" | tr '\n' ' ')"
    else
        equal=true
        echo "   result_digest $(head -n 1 "$tmp/$w.digest.parent") on both sides, every run"
    fi
    if [ -n "$json" ]; then
        # "DIGEST failed=N" lines as a JSON list of strings.
        digests() { sort -u "$1" | awk '{ printf "%s\"%s\"", (NR > 1 ? ", " : ""), $0 }'; }
        [ "$first" -eq 1 ] || printf ',\n' >>"$json"
        printf '{"workload": "%s", "digest_equal": %s, "parent_digests": [%s], "change_digests": [%s], "metrics": [\n' \
            "$w" "$equal" "$(digests "$tmp/$w.digest.parent")" "$(digests "$tmp/$w.digest.change")" >>"$json"
    fi
    first=0
    # One line per gated metric: name, better, bound.
    sed -n 's/.*{"name": "\([a-z_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' "$spec" |
        while read -r metric better bound; do
            [ -s "$tmp/$w.$metric.parent" ] || continue # a metric this workload does not report
            paste "$tmp/$w.$metric.parent" "$tmp/$w.$metric.change" | awk -v metric="$metric" -v better="$better" -v bound="$bound" -v json="${json:+$tmp/$w.metrics.json}" '
                function sort(a, n,    i, j, v) {
                    for (i = 2; i <= n; i++) { v = a[i]; for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v }
                }
                function cut(a, n, i,    m, j, d) { # statistics.quantiles(a, n=4)[i-1], exclusive
                    if (n == 1) return a[1]
                    m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
                    d = i * m - j * 4
                    return (a[j] * (4 - d) + a[j + 1] * d) / 4
                }
                { p[NR] = $1; c[NR] = $2
                  if (better == "higher" ? $2 > $1 : $2 < $1) won++; else if ($2 != $1) lost++ }
                END {
                    n = NR; sort(p, n); sort(c, n)
                    pm = cut(p, n, 2); cm = cut(c, n, 2); iqr = cut(p, n, 3) - cut(p, n, 1)
                    worse = better == "higher" ? pm - cm : cm - pm       # > 0: change is worse
                    verdict = "ok"
                    if (worse > bound * (pm < 0 ? -pm : pm)) verdict = "REGRESSED"
                    else if (won * 10 >= n * 9 && -worse > iqr) verdict = "gain"
                    else if (iqr > bound * (pm < 0 ? -pm : pm) && lost > 0) verdict = "unresolved"
                    printf "   %-22s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  x%.3f  won %d/%d  %s\n",
                        metric, pm, cut(p, n, 1), cut(p, n, 3), cm, cut(c, n, 1), cut(c, n, 3), pm ? cm / pm : 0, won, n, verdict
                    if (json != "")
                        printf "{\"metric\": \"%s\", \"better\": \"%s\", \"bound\": %s, \"parent\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}, \"change\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}, \"ratio\": %.6g, \"won\": %d, \"pairs\": %d, \"verdict\": \"%s\"}\n",
                            metric, better, bound, pm, cut(p, n, 1), cut(p, n, 3), cm, cut(c, n, 1), cut(c, n, 3), pm ? cm / pm : 0, won, n, verdict >> json
                    exit verdict == "REGRESSED"
                }' || echo "$w $metric" >>"$tmp/regressed"
        done
    if [ -n "$json" ]; then # this workload's metric lines, comma-separated
        { sed '$!s/$/,/' "$tmp/$w.metrics.json"; echo "]}"; } >>"$json"
    fi
done
if [ -n "$json" ]; then
    printf ']}\n' >>"$json"
    if [ -s "$AB_JSON" ]; then
        # Append to the tables already there: drop the closing "]}".
        sed '$d' "$AB_JSON" >"$tmp/prev.json"
        { cat "$tmp/prev.json"; echo ","; cat "$json"; echo "]}"; } >"$AB_JSON"
    else
        { echo '{"schema": "socflow-ab/1", "tables": ['; cat "$json"; echo "]}"; } >"$AB_JSON"
    fi
fi
if [ -s "$tmp/regressed" ]; then
    echo "ab.sh: regressed past the BENCHMARK.json bound:" $(tr '\n' ';' <"$tmp/regressed") >&2
    status=1
fi
exit "$status"
