#!/usr/bin/env bash
# The command BENCHMARK.json names: `go run ./benchmark` with everything
# the build writes kept inside the checkout. The binary and, unless GOCACHE
# is already set, the Go build cache go under .bench_build, where plain
# `go run` would write to the home directory. VCS stamping is off because
# the checkout need not be a git repository; a -set file takes its commit
# from `git rev-parse HEAD` instead (commitOf in sets.go).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="${GOCACHE:-$out/gocache}" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
