#!/bin/sh
# Runs the cmd/ binaries end to end against a live daemon: builds
# ./cmd/... into a temporary directory, starts socflow-server on a port
# the kernel picks, submits a training job and a serving window to it,
# checks that a config the daemon can never run is refused at submit with
# its sentinel named, and stops the daemon with SIGINT. Nothing is
# written in the checkout.
#
#   scripts/binaries.sh
set -eu

bin=$(mktemp -d "${TMPDIR:-/tmp}/socflow-bin.XXXXXX")
pid=
cleanup() {
    if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
    rm -rf "$bin"
}
trap cleanup EXIT INT TERM

go build -o "$bin" ./cmd/...

"$bin/socflow-server" --addr 127.0.0.1:0 --socs 32 2>"$bin/server.log" &
pid=$!
addr=
for _ in $(seq 100); do
    addr=$(sed -n 's/.*listening on \([^ ]*\) .*/\1/p' "$bin/server.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    cat "$bin/server.log"
    exit 1
fi
url=http://$addr

"$bin/socflow-train" --server "$url" --model lenet5 --dataset fmnist \
    --socs 8 --groups 2 --epochs 1 --samples 160
"$bin/socflow-serve" --server "$url" --model lenet5 --dataset fmnist \
    --hours 1 --socs 8

if "$bin/socflow-train" --server "$url" --model lenet5 --dataset fmnist \
    --socs 8 --groups 99 --epochs 1 >"$bin/bad.out" 2>&1; then
    echo "socflow-train accepted 99 groups on 8 SoCs" >&2
    exit 1
fi
grep -q "socflow: invalid option" "$bin/bad.out" || { cat "$bin/bad.out"; exit 1; }

kill -INT "$pid"
status=0
wait "$pid" || status=$?
pid=
cat "$bin/server.log"
grep -q "shutting down" "$bin/server.log"
exit "$status"
