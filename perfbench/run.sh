#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload psc-lan --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, spill files and traces all live under
# .bench_build/ in the checkout, and the toolchain is kept offline.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
