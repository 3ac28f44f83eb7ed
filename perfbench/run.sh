#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through (see perfbench/NOTES.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload mega-stream --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build directory,
# $CARGO_TARGET_DIR when set, .bench_build otherwise: the Go build cache,
# the binary, and beside it the per-seed outcome records that later runs of
# the same binary at the same seed must reproduce.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOPATH=$build/go-path
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
