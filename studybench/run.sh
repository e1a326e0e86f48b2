#!/usr/bin/env bash
# Builds the study benchmark from this checkout's sources and runs it.
#
#   bash studybench/run.sh --workload arch-gcc --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, module cache, toolchain telemetry, the binary) stays under
# .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/studybench" build -o "$out/studybench" .
exec "$out/studybench" "$@"
