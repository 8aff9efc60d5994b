#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. The Go
# toolchain's caches, temp files and telemetry counters stay inside the
# checkout, and nothing is fetched.
set -euo pipefail
cd "$(dirname "$0")/.."
b="$PWD/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench -o "$b/bench" .
exec "$b/bench" "$@"
