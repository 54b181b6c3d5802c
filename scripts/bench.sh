#!/bin/sh
# Runs the build/predict microbenchmarks, writes a JSON evidence file via
# cmd/benchjson, and gates the fused-columnar scoring kernel. End-to-end
# numbers (study, induce, serve-small, serve-bulk) come from
# benchmark/run.sh, not from this script. The checked-in BENCH_PR*.json
# files are history and are never overwritten implicitly: the output
# path is a required argument.
#
# Baselines embedded for speedup bookkeeping:
#   - Build*: BENCH_PR5.json measurements (per-node quicksort, row-major
#     QR), unchanged since.
#   - PredictDatasetCompiled*: BENCH_PR5.json (scalar blocked traversal,
#     per-chunk row copies) — the speedup field documents the fused
#     AVX-512 kernel's win.
#   - PredictColumnar*: the PR 7 in-place broadcast kernels measured on
#     this container family immediately before the PR 10 tile-transpose
#     rewrite — the speedup field documents the fused-columnar win.
#
# Regression gate: BenchmarkPredictColumnarSerial is checked against the
# PR 10 fused tile-transpose baseline times a noise multiplier; the run
# fails (after writing the evidence file) if the fused-columnar path
# regresses past it. Container timing noise on this family is ±10-20%,
# so the default multiplier is 1.5x.
#
# Usage: scripts/bench.sh output.json
# Env: BENCHTIME=6x COLUMNAR_BASELINE_NS=140000 NOISE_PCT=150
set -eu

if [ $# -ne 1 ] || [ -z "$1" ]; then
    echo "usage: scripts/bench.sh output.json" >&2
    exit 2
fi
# Resolve the output path against the caller's directory, not the repo root.
case "$1" in
/*) out="$1" ;;
*) out="$PWD/$1" ;;
esac
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-6x}"
columnar_baseline="${COLUMNAR_BASELINE_NS:-140000}"
noise_pct="${NOISE_PCT:-150}"
gate=$((columnar_baseline * noise_pct / 100))

go test -run '^$' -bench 'BenchmarkBuild|BenchmarkPredict' \
    -benchtime "$benchtime" -benchmem . |
    tee /dev/stderr |
    go run ./cmd/benchjson \
        -label "build/predict microbenchmarks with the fused-columnar kernel gate" \
        -baseline BenchmarkBuildSerial=268747454 \
        -baseline BenchmarkBuildParallel=270228908 \
        -baseline BenchmarkPredictDatasetCompiledSerial=290942 \
        -baseline BenchmarkPredictDatasetCompiledParallel=295845 \
        -baseline BenchmarkPredictColumnarSerial=296340 \
        -baseline BenchmarkPredictColumnarParallel=312678 \
        -gate "BenchmarkPredictColumnarSerial=$gate" \
        -o "$out"
echo "wrote $out" >&2
