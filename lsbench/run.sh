#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout; arguments go to the benchmark, e.g.
#   bash lsbench/run.sh --workload rank-academic --seed 1 --seconds 20 --trace 0
# Build cache, binary, checkpoints, results and traces stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd lsbench && go build -o "$out/lsbench" .)
exec "$out/lsbench" --dir "$out" "$@"
