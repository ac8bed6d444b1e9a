#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-out dir]
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Everything the build writes (compile cache, temporary files, the binary)
# stays in .bench_build/ inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
    go build -C bench -o "$build/bench" .
BENCH_GIT_REV=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
export BENCH_GIT_REV
exec "$build/bench" "$@"
