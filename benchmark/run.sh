#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload study --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, Go's
# temporary files, GOPATH and Go's config directory (where the toolchain
# keeps telemetry counters) all stay under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd benchmark && go build -trimpath -buildvcs=false -o "$build/specchar-benchmark" .)
exec "$build/specchar-benchmark" "$@"
