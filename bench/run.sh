#!/usr/bin/env bash
# Entry point of the benchmark driver (see BENCHMARK.json): builds dtperf
# from this checkout's sources and runs it with the driver's arguments.
# Everything the Go toolchain writes (build cache, module cache, its
# config and telemetry files) is kept under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/dtperf" ./cmd/dtperf)
cd "$root"
exec "$build/dtperf" "$@"
