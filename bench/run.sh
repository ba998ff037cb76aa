#!/usr/bin/env bash
# Builds the benchmark and the daemon and pipeline binaries it measures from
# this checkout, then runs it. Run from the checkout root, e.g.
#
#   bash bench/run.sh -workload all -seed 1
#   bash bench/run.sh -workload ring-small -seed 2 -seconds 15 -trace 1
#
# Everything it writes stays under .bench_build/ in the checkout, including
# the Go build cache, so the first run compiles the standard library.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/" ./cmd/metis-serve ./cmd/metis-exp
go -C bench build -o "$out/bin/" ./cmd/metis-bench ./cmd/peakrss
# The per-layer timer calls internal APIs; if they change, only -trace 1
# runs lose it.
rm -f "$out/bin/metis-layers"
go -C bench build -o "$out/bin/" ./cmd/metis-layers ||
	echo "run.sh: metis-layers did not build; -trace 1 runs will fail" >&2

exec "$out/bin/metis-bench" -bin "$out/bin" -work .bench_build/work "$@"
