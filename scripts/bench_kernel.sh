#!/bin/sh
# bench_kernel.sh — run the simulation-kernel benchmark suite and record
# the results in BENCH_kernel.json under a label.
#
# Usage: scripts/bench_kernel.sh [label]
#
# The label defaults to "current". Use distinct labels (e.g. "pre-pr",
# "post-pr") to keep before/after snapshots side by side; re-running with
# the same label replaces that snapshot. The macro benchmarks
# (BenchmarkFigure3, its batched variant, and BenchmarkScaleSmoke) run
# full simulations and take a few seconds each; the micro benchmarks
# are fast.
#
# BenchmarkScaleSmoke reports steps/sec and heap high-water (heap-MB,
# B/client) alongside ns/op, so kernel-throughput and memory-per-client
# regressions land in BENCH_kernel.json with everything else. Set
# BENCH_SCALE=1 to also run BenchmarkScale100x, the million-client run —
# minutes of wall clock and tens of GB of heap, so it is opt-in.
set -eu
cd "$(dirname "$0")/.."

label="${1:-current}"

scale='BenchmarkScaleSmoke$'
if [ "${BENCH_SCALE:-}" = 1 ]; then
	scale='BenchmarkScaleSmoke$|BenchmarkScale100x$'
fi

{
	go test -run '^$' -bench . -benchtime 100000x -benchmem \
		./internal/sim/... ./internal/netsim/... ./internal/rng/... \
		./internal/pagefile/... ./internal/lockmgr/... \
		./internal/batch/... ./internal/proto/... ./internal/trace/... ./internal/scenario/... \
		./internal/txn/...
	go test -run '^$' -bench 'BenchmarkFigure3$|BenchmarkFigure3Batched$' -benchtime 1x -benchmem .
	go test -run '^$' -bench "$scale" -benchtime 1x -benchmem -timeout 60m .
} | go run ./cmd/benchjson -into BENCH_kernel.json -label "$label"
