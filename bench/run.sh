#!/usr/bin/env bash
# Builds the benchmark with every Go cache inside the checkout and runs it.
# Usage: bash bench/run.sh [--workload NAME --seed N --seconds S --trace 0|1] [-aa] [-quick]
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
