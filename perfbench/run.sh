#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it
# with the given flags, e.g.
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact (Go build
# cache, temp files, the binary) stays under .bench_build/ in the
# current directory, and the toolchain is kept offline.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
