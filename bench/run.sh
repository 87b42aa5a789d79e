#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root: bash bench/run.sh -workload fig3 ...
# Everything the go tool writes — build cache, temporary files, the
# binary — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go tool stamps the git commit into the binary when the checkout is a
# healthy git repository; anywhere else it must not be asked to.
go build -C bench -o "$build/sitebench" . 2>/dev/null ||
	go build -C bench -buildvcs=false -o "$build/sitebench" .
exec "$build/sitebench" "$@"
