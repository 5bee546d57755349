#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. The module under bench/ needs the repository around it
# (replace agnopol => ../), so the build fails, and this script with it, in a
# directory that holds only BENCHMARK.json and bench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes stays inside the checkout.
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
