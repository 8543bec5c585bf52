#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload tpch-bdcc --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, telemetry) stays under .bench_build/ in the
# current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off CGO_ENABLED=0
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
