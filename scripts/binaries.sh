#!/bin/sh
# Runs the socflow binary end to end against a live daemon: builds
# ./cmd/socflow into a temporary directory, starts `socflow server` on a
# port the kernel picks, submits a training job (`socflow train
# --server`) and a serving window (`socflow serve --server`) to it,
# checks that a config the daemon can never run is refused at submit with
# its sentinel named, checks that `socflow train` refuses --server with a
# local-only flag at parse time (exit 2, the flag named), checks that
# /debug/pprof/ is served only with --pprof (200 on a second daemon
# started with it, 404 here), follows a job's events stream, its trace
# and its scheduler decision log (parked by a higher-priority job, then
# resumed), and stops the daemons with SIGINT (promptly, with that stream
# still open). Nothing is written in the checkout.
#
#   scripts/binaries.sh
set -eu

bin=$(mktemp -d "${TMPDIR:-/tmp}/socflow-bin.XXXXXX")
pid= ppid= cpid=
cleanup() {
    for p in $pid $ppid $cpid; do kill "$p" 2>/dev/null || true; done
    rm -rf "$bin"
}
trap cleanup EXIT INT TERM

go build -o "$bin/socflow" ./cmd/socflow

# wait_addr LOG: prints the address the daemon logging to LOG bound.
wait_addr() {
    for _ in $(seq 100); do
        a=$(sed -n 's/.*listening on \([^ ]*\) .*/\1/p' "$1")
        if [ -n "$a" ]; then
            echo "$a"
            return
        fi
        sleep 0.1
    done
    cat "$1" >&2
    exit 1
}

# expect_status URL CODE: fails unless GET URL answers CODE.
expect_status() {
    got=$(curl -s -o /dev/null -w '%{http_code}' "$1")
    if [ "$got" != "$2" ]; then
        echo "GET $1 answered $got, want $2" >&2
        exit 1
    fi
}

# The park directory of the job this daemon parks at shutdown (kept for
# a next generation) lands in $bin, which the exit trap removes.
TMPDIR="$bin" "$bin/socflow" server --addr 127.0.0.1:0 --socs 32 2>"$bin/server.log" &
pid=$!
url=http://$(wait_addr "$bin/server.log")
expect_status "$url/debug/pprof/" 404

"$bin/socflow" server --addr 127.0.0.1:0 --socs 32 --pprof 2>"$bin/pprof.log" &
ppid=$!
purl=http://$(wait_addr "$bin/pprof.log")
expect_status "$purl/debug/pprof/" 200
expect_status "$purl/debug/pprof/cmdline" 200
expect_status "$purl/metrics" 200
kill -INT "$ppid"
wait "$ppid"
ppid=

"$bin/socflow" train --server "$url" --model lenet5 --dataset fmnist \
    --socs 8 --groups 2 --epochs 1 --samples 160
"$bin/socflow" serve --server "$url" --model lenet5 --dataset fmnist \
    --hours 1 --socs 8

if "$bin/socflow" train --server "$url" --model lenet5 --dataset fmnist \
    --socs 8 --groups 99 --epochs 1 >"$bin/bad.out" 2>&1; then
    echo "socflow train accepted 99 groups on 8 SoCs" >&2
    exit 1
fi
grep -q "socflow: invalid option" "$bin/bad.out" || { cat "$bin/bad.out"; exit 1; }

# A daemon never receives train's local-only flags: asked for one with
# --server, train refuses at parse time with exit 2, naming the flag,
# and submits nothing.
status=0
"$bin/socflow" train --server "$url" --model lenet5 --dataset fmnist \
    --socs 8 --groups 2 --epochs 1 --metrics-out "$bin/m.json" >"$bin/local.out" 2>&1 || status=$?
if [ "$status" != 2 ] || ! grep -q -- "--metrics-out" "$bin/local.out" || grep -q submitted "$bin/local.out"; then
    echo "socflow train --server --metrics-out exited $status, want a refusal naming the flag:" >&2
    cat "$bin/local.out" >&2
    exit 1
fi

# A long job with its GET /v1/jobs/{id}/events stream open: SIGINT must
# still end the stream, park the job and exit well inside the daemon's
# 10 s shutdown budget.
id=$(curl -s -X POST "$url/v1/jobs" -d '{"tenant":"t","kind":"train","config":{"Model":"lenet5","Dataset":"fmnist","Epochs":1000,"TrainSamples":160,"NumSoCs":8,"Groups":2}}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
curl -sN "$url/v1/jobs/$id/events" >"$bin/events.out" &
cpid=$!
for _ in $(seq 100); do
    grep -q '^data: {"kind":"epoch"' "$bin/events.out" && break
    sleep 0.1
done
grep -q '^data: {"kind":"epoch"' "$bin/events.out" || { echo "no epoch event on $id's stream" >&2; exit 1; }

# The running job's GET /v1/jobs/{id}/trace: a Chrome trace holding its
# spans so far; an unknown job's trace is a 404.
curl -sf "$url/v1/jobs/$id/trace" >"$bin/trace.json"
grep -q '"traceEvents"' "$bin/trace.json" && grep -q '"ph": "X"' "$bin/trace.json" ||
    { echo "no span in $id's trace:" >&2; head -c 2000 "$bin/trace.json" >&2; exit 1; }
expect_status "$url/v1/jobs/job-999999/trace" 404

# A priority-9 job wanting the whole cluster parks the long job at its
# next epoch boundary and runs; its exit resumes the long job. The long
# job's GET /v1/jobs/{id}/decisions names the evictor and its priority;
# an unknown job's decision log is a 404.
hid=$(curl -s -X POST "$url/v1/jobs" -d '{"tenant":"u","priority":9,"kind":"train","config":{"Model":"lenet5","Dataset":"fmnist","Epochs":1,"TrainSamples":160,"NumSoCs":32,"Groups":2}}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
for _ in $(seq 200); do
    curl -sf "$url/v1/jobs/$id/decisions" >"$bin/decisions.json"
    grep -q '"outcome":"resume"' "$bin/decisions.json" && break
    sleep 0.1
done
grep -q '"outcome":"resume"' "$bin/decisions.json" &&
    grep -q "\"outcome\":\"park\",\"reason\":\"evicted by $hid (priority 9" "$bin/decisions.json" ||
    { echo "$id's decision log does not show its park by $hid and its resume:" >&2; cat "$bin/decisions.json" >&2; exit 1; }
expect_status "$url/v1/jobs/job-999999/decisions" 404

start=$(date +%s)
kill -INT "$pid"
status=0
wait "$pid" || status=$?
pid=
wait "$cpid"
cpid=
cat "$bin/server.log"
grep -q "shutting down" "$bin/server.log"
grep -q "parked 1 preemptible" "$bin/server.log"
if [ $(($(date +%s) - start)) -ge 8 ]; then
    echo "the daemon took $(($(date +%s) - start)) s to stop with an events stream open" >&2
    exit 1
fi
exit "$status"
