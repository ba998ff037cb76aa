#!/usr/bin/env sh
# Runs the headline figure/table benchmarks and writes a timestamped JSON
# record (BENCH_<date>_<time>.json) so the performance trajectory is tracked
# across PRs.
#
# Usage: ./scripts/bench.sh [benchtime] [extra go test args...]
#   benchtime defaults to 3x (each bench runs 3 iterations).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-3x}"
[ $# -gt 0 ] && shift

BENCHES='BenchmarkFig07DecisionTree|BenchmarkMaskSearch$|BenchmarkMaskSearchSerial|BenchmarkCARTBuild|BenchmarkExtractionOverhead|BenchmarkFig27InterpBaselines|BenchmarkTreeDecision|BenchmarkDNNDecision|BenchmarkCompiledPredictBatch|BenchmarkQuantizedPredictBatch|BenchmarkServePredictBatch$|BenchmarkServePredictBatchBinary|BenchmarkServePredictBatchUDS$|BenchmarkServePredictBatchUDSPipelined|BenchmarkServePredictBatchSHM|BenchmarkServeMultiTenantContention|BenchmarkScenarioPipeline$|BenchmarkScenarioPipelineAll'
# The serving subset gets its own trajectory file (BENCH_SERVE_*.json) so the
# transport story — compiled vs quantized in-process, HTTP JSON vs HTTP
# binary vs UDS framed through the daemon, flat vs sharded over the ring —
# can be tracked without wading through the training/figure benches.
SERVE_BENCHES='BenchmarkCompiledPredictBatch|BenchmarkQuantizedPredictBatch|BenchmarkServePredictBatch|BenchmarkServeMultiTenantContention'
DATE="$(date +%Y-%m-%d)"
# One timestamped record per run — a same-day before/after pair never
# collides and never produces two differently named files for one run.
STAMP="${DATE}_$(date +%H%M%S)"
OUT="BENCH_${STAMP}.json"
SERVE_OUT="BENCH_SERVE_${STAMP}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "running benchmarks (benchtime=${BENCHTIME})…" >&2
# -benchmem lands B/op and allocs/op in the record, so allocation
# regressions (and the serving path's zero-alloc contract) are tracked in
# the trajectory alongside wall clock.
go test -run '^$' -bench "$BENCHES" -benchtime "$BENCHTIME" -benchmem -timeout 3600s "$@" . | tee "$RAW" >&2

# Host facts every record carries: the commit measured ("-dirty" when the
# tree has uncommitted changes), the cores the host exposes, and the
# GOMAXPROCS the benchmarks ran with (the -N suffix go test appends to each
# benchmark name, which is absent when it is 1).
COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$COMMIT" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  COMMIT="${COMMIT}-dirty"
fi
NUM_CPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)"
GOMAXPROCS_RUN="$(awk '/^Benchmark/ { n = split($1, p, "-"); print (n > 1 ? p[n] : 1); exit }' "$RAW")"

# Convert `BenchmarkName  N  T ns/op  [extra metrics]` lines to JSON.
# $1: raw bench output  $2: output json  $3: bench-name filter regex
emit_json() {
  {
    printf '{\n  "date": "%s",\n  "commit": "%s",\n  "go": "%s",\n  "num_cpu": %s,\n  "gomaxprocs": %s,\n  "benchtime": "%s",\n  "results": [\n' \
      "$DATE" "$COMMIT" "$(go env GOVERSION)" "$NUM_CPU" "${GOMAXPROCS_RUN:-null}" "$BENCHTIME"
    awk -v filter="$3" '
      /^Benchmark/ && $1 ~ filter {
        name=$1; iters=$2; ns=$3
        extras=""
        for (i = 5; i + 1 <= NF; i += 2) {
          gsub(/"/, "", $(i+1))
          extras = extras sprintf(", \"%s\": %s", $(i+1), $i)
        }
        if (count++) printf ",\n"
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", name, iters, ns, extras
      }
      END { printf "\n" }
    ' "$1"
    printf '  ]\n}\n'
  } > "$2"
  echo "wrote $2" >&2
}

emit_json "$RAW" "$OUT" '.'
emit_json "$RAW" "$SERVE_OUT" "$SERVE_BENCHES"
