#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash perfbench/run.sh --workload preload4 --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the traced runs' spans. The
# benchmark module replaces the simulator's module with the checkout root,
# so outside a full checkout the build fails and nothing is printed.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
