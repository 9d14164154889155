#!/bin/sh
# Non-test Go code lines per package, plus a total: the figure a
# simplicity change reports before and after.
#
#   scripts/loc.sh [REV]
#
# Counts every line of a non-_test.go Go file that is neither blank nor
# a // comment. benchmark/ is left out (it is frozen, so it cannot move).
# With no argument the working tree is counted as it stands; with REV,
# that revision's tree is exported by git archive into a temporary
# directory and counted there. Nothing is written in the checkout.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
root=$repo
if [ $# -gt 0 ]; then
    root=$(mktemp -d "${TMPDIR:-/tmp}/socflow-loc.XXXXXX")
    trap 'rm -rf "$root"' EXIT INT TERM
    (cd "$repo" && git archive "$1") | tar -xf - -C "$root"
fi

cd "$root"
# The first awk counts per directory (find may split the file list over
# several invocations); the second sums and prints in package order.
find . \( -path ./.git -o -path ./benchmark \) -prune -o \
    -type f -name '*.go' ! -name '*_test.go' -exec awk '
    !/^[ \t]*$/ && !/^[ \t]*\/\// {
        d = FILENAME; sub(/\/[^\/]*$/, "", d); sub(/^\.\/?/, "", d)
        n[d == "" ? "." : d]++
    }
    END { for (d in n) print d, n[d] }' {} + |
    sort | awk '
    { n[$1] += $2; if (!($1 in seen)) { seen[$1] = 1; order[++k] = $1 }; total += $2 }
    END {
        for (i = 1; i <= k; i++) printf "%7d  %s\n", n[order[i]], order[i]
        printf "%7d  total\n", total
    }'
