#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#   bash perfbench/run.sh --workload fig6-idle --seed 1 --seconds 30 --trace 0
# Run from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, the binary) stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
# The toolchain keeps telemetry counters under the user config directory;
# point that inside the checkout too, with collection off.
echo off > "$out/config/go/telemetry/mode"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
