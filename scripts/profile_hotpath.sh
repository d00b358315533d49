#!/usr/bin/env bash
# Profile the simulator hot path with perf, falling back to a plain timed
# run when perf is unavailable (minimal containers usually lack it).
#
#   scripts/profile_hotpath.sh [BENCH_FILTER] [-- extra bench args...]
#
# Examples:
#   scripts/profile_hotpath.sh                         # BM_SimEventRate
#   scripts/profile_hotpath.sh 'BM_SimEventRate/100000'
#   scripts/profile_hotpath.sh 'EventQueueTimerChurn' -- --benchmark_min_time=1
#
# Output: perf.data + a trimmed `perf report` summary on stdout. The bench
# binary must exist (cmake --build build -j --target bench_micro_sim) and is
# run from the build directory, which bench_micro_sim requires.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build"
bench="$build/bench_micro_sim"
filter="${1:-BM_SimEventRate}"
[ $# -gt 0 ] && shift
[ "${1:-}" = "--" ] && shift

if [ ! -x "$bench" ]; then
  echo "error: $bench not built (cmake --build build -j --target bench_micro_sim)" >&2
  exit 1
fi

cd "$build"
args=(--benchmark_filter="$filter" --benchmark_min_time=0.5 "$@")

if command -v perf > /dev/null 2>&1; then
  perf record -g --output=perf.data -- "$bench" "${args[@]}"
  echo
  echo "=== hottest symbols (perf report --stdio, top 40 lines) ==="
  perf report --stdio --percent-limit 0.5 --input=perf.data | head -40
  echo
  echo "full report: perf report --input=$build/perf.data"
else
  echo "perf not found (install linux-perf / linux-tools to profile);" >&2
  echo "running the filter un-profiled so the numbers are still comparable:" >&2
  exec "$bench" "${args[@]}"
fi
