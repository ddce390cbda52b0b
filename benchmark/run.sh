#!/usr/bin/env bash
# The benchmark's entry point for the driver (BENCHMARK.json "command").
# It builds the harness from source, keeping every build output and the
# Go build cache under .bench_build in the checkout, then runs it with
# the driver's arguments. The harness builds cmd/sisimd the same way.
# People can also use `go run ./benchmark`, which does the same minus
# the private build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false CGO_ENABLED=0 GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
