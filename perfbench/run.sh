#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the arguments
# given (see perfbench/NOTES.md). Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload canneal64_noack --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
