#!/usr/bin/env bash
# Builds and runs the hot-path performance baseline:
#   - bench_perf — event-queue throughput, trace-emit ns/event, serial vs
#     parallel sweep scaling + determinism, and the obs / obs+live session
#     overhead fractions — written to BENCH_perf.json at the repo root.
#
# Usage: bench/run_bench_perf.sh [build-dir]   (default: ./build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [ ! -d "$build_dir" ]; then
  cmake -B "$build_dir" -S "$repo_root"
fi
cmake --build "$build_dir" --target bench_perf -j "$(nproc)"

echo "== bench_perf =="
"$build_dir/bench/bench_perf" "$repo_root/BENCH_perf.json"
