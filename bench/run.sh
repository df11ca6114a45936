#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Every build product and Go cache lands in .bench_build/ under the current
# directory; nothing is fetched (the module has no dependencies).
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/mlvlsi-bench" .
exec "$out/mlvlsi-bench" "$@"
