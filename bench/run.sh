#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload flow-s32 --seed 1 --seconds 10 --trace 0
#
# The go build cache, temporary files and the binary all stay under
# .bench_build/ at the repository root, and the module proxy is off, so a
# run reads and writes nothing outside the checkout besides the Go
# toolchain itself.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go -C bench build -buildvcs=false -o "$build/scapbench" .
exec "$build/scapbench" "$@"
