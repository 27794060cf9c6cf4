#!/usr/bin/env sh
# Runs the batching, scaling, kernel, lint, nest, and serve benchmarks
# and records JSON snapshots at the repo root (BENCH_batch.json,
# BENCH_scaling.json, BENCH_kernel.json, BENCH_lint.json,
# BENCH_nest.json, BENCH_serve.json), plus a
# telemetry snapshot (BENCH_stats.json: ardf-stats over the bundled
# example programs -- deterministic counters, derived rates, and the
# log2-bucketed latency histogram summaries with p50/p95/p99).
#
# scripts/bench_trend.py merges the recorded snapshots into a trend
# table and (in --check mode) gates on deterministic-counter drift.
#
# Usage: scripts/bench_snapshot.sh [build-dir] [repetitions]
#   build-dir    defaults to ./build; configured on the fly if it has
#                never been configured.
#   repetitions  forwarded as --benchmark_repetitions (also settable via
#                the BENCH_REPETITIONS environment variable; default 1).
#                With more than one repetition, only the aggregate rows
#                (median/mean/stddev) are recorded, so committed
#                snapshots carry the stable statistic instead of every
#                raw rep.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
REPETITIONS=${2:-${BENCH_REPETITIONS:-1}}

# A build dir without a CMake cache has never been configured: do it
# here (explicitly Release) so the script works from a fresh checkout.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
fi

# Refuse to snapshot anything but a Release build: committed BENCH_*.json
# numbers from -O0/debug binaries poison every later comparison. An empty
# cached value means the dir was configured before the top-level default
# became a cache entry -- reconfigure rather than guess.
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$BUILD_DIR/CMakeCache.txt")
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "bench_snapshot.sh: error: '$BUILD_DIR' is configured as" \
    "CMAKE_BUILD_TYPE='${BUILD_TYPE:-<empty>}', not Release." >&2
  echo "  Benchmarks from non-Release builds must not be recorded." >&2
  echo "  Re-run: cmake -B '$BUILD_DIR' -S '$REPO_ROOT'" \
    "-DCMAKE_BUILD_TYPE=Release" >&2
  exit 2
fi

cmake --build "$BUILD_DIR" --target \
  bench_batch bench_scaling bench_kernel bench_lint bench_nest \
  bench_serve ardf-stats -j

# With repetitions, forward only the aggregates into the snapshot.
AGGREGATE_FLAGS=""
if [ "$REPETITIONS" -gt 1 ]; then
  AGGREGATE_FLAGS="--benchmark_report_aggregates_only=true"
fi

# run_bench <name>: runs bench_<name>, records BENCH_<name>.json, and
# verifies the recorded context proves the *library* was compiled as
# release. Google Benchmark's own "library_build_type" field describes
# how libbenchmark was built (the distro package is assertion-enabled,
# so that field legitimately reads "debug"); the guard that protects our
# numbers is the ardf_library_build_type context the bench mains embed,
# which reflects libardf's actual compile flags.
run_bench() {
  OUT="$REPO_ROOT/BENCH_$1.json"
  # shellcheck disable=SC2086 -- AGGREGATE_FLAGS is intentionally split.
  "$BUILD_DIR/bench/bench_$1" \
    --benchmark_repetitions="$REPETITIONS" \
    $AGGREGATE_FLAGS \
    --benchmark_out="$OUT" \
    --benchmark_out_format=json
  if ! grep -q '"ardf_library_build_type": "release"' "$OUT"; then
    echo "bench_snapshot.sh: error: $OUT was measured against a" \
      "debug-typed libardf; refusing to record it." >&2
    echo "  Rebuild with -DCMAKE_BUILD_TYPE=Release and re-run." >&2
    rm -f "$OUT"
    exit 2
  fi
}

run_bench batch
run_bench scaling
run_bench kernel
run_bench lint
run_bench nest
run_bench serve

# Telemetry snapshot over the bundled examples: cache hit rates, the
# 3N/2N cost-bound verdicts, and the latency histogram summaries
# (ardf-stats always runs with timings enabled, so the "histograms"
# section is populated) ride along with the timing runs.
"$BUILD_DIR/tools/ardf-stats" \
  --json="$REPO_ROOT/BENCH_stats.json" \
  "$REPO_ROOT"/examples/programs/*.arf

if ! grep -q '"histograms"' "$REPO_ROOT/BENCH_stats.json"; then
  echo "bench_snapshot.sh: error: BENCH_stats.json has no histogram" \
    "section; ardf-stats was built without the latency histograms." >&2
  exit 2
fi

echo "Wrote $REPO_ROOT/BENCH_batch.json, $REPO_ROOT/BENCH_scaling.json," \
  "$REPO_ROOT/BENCH_kernel.json, $REPO_ROOT/BENCH_lint.json," \
  "$REPO_ROOT/BENCH_nest.json, $REPO_ROOT/BENCH_serve.json, and" \
  "$REPO_ROOT/BENCH_stats.json"
