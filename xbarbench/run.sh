#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root, e.g.
#
#   bash xbarbench/run.sh --workload oracle-sessions --seed 1 --seconds 16 --trace 0
#
# Build outputs, the Go build cache, run state and span dumps all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/xbarbench" build -o "$build/xbarbench" . >&2
exec "$build/xbarbench" "$@"
