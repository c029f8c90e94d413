#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it with the given arguments, from the checkout's root.
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep every file the toolchain writes inside the checkout, and never
# reach for the network: the module has no dependencies to fetch.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
