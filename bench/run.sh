#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json: build dmfload from this checkout
# and run it with the given arguments. Everything the build and the run
# write stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload ingest_small --seed 1 --seconds 24 --trace 0
#   bash bench/run.sh                      # all five workloads, untraced
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C bench -o "$build/bin/dmfload" ./cmd/dmfload
exec "$build/bin/dmfload" -workdir "$build/dmfload" "$@"
