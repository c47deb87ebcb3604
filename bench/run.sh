#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# inside the checkout, then run it from the checkout root. Everything go
# writes (build cache, temp files, the binary) stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -o "$build/unapbench" .
exec "$build/unapbench" "$@"
