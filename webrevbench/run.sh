#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash webrevbench/run.sh --workload build-disk --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go caches, the benchmark binary, working data and spans.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/webrevbench" build -o "$out/webrevbench" . >&2
exec "$out/webrevbench" "$@"
