#!/bin/sh
# Builds (Release) and runs the crypto micro-benchmark suite, leaving
# BENCH_crypto_primitives.json at the repo root, then gates it against
# the committed copy with tools/check_bench.py (see docs/PERFORMANCE.md).
# Run from anywhere inside the repo:
#
#   tools/run_benches.sh                 # whole suite
#   tools/run_benches.sh 'BM_Pbkdf2.*'   # by regex
#
# perfbench (perfbench/README.md) measures the login and password-round
# latency end to end; the bench_fig3_latency_exact ctest holds the Fig. 3
# artifact byte for byte.
#
# Note: the installed google-benchmark wants --benchmark_min_time as a
# plain double (no "s" suffix).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
filter=${1:-.}
jobs=$(nproc 2>/dev/null || echo 4)
build_dir=$repo_root/build

echo "== configure $build_dir"
cmake -B "$build_dir" -S "$repo_root" >/dev/null
echo "== build bench_crypto_primitives"
cmake --build "$build_dir" -j "$jobs" --target bench_crypto_primitives

build_type=$(grep -E '^CMAKE_BUILD_TYPE:' "$build_dir/CMakeCache.txt" |
    cut -d= -f2)
case "$build_type" in
Release | RelWithDebInfo) ;;
*)
    echo "warning: build dir is CMAKE_BUILD_TYPE=$build_type;" \
        "numbers will not be comparable to Release baselines" >&2
    ;;
esac

echo "== run (filter: $filter)"
cd "$repo_root"
"$build_dir/bench/bench_crypto_primitives" \
    --benchmark_filter="$filter" \
    --benchmark_min_time=0.2

# Gate: the fresh artifact just overwrote the repo-root baseline in
# place, so diff it against the committed copy (git show HEAD:...) and
# fail the run on step-change regressions. A filtered run leaves a
# partial artifact, so only the whole suite is gated. Override the slack
# with e.g. AMNESIA_BENCH_TOLERANCE=15 on a quiet machine.
if [ "$filter" = "." ]; then
    echo "== check against the committed baseline"
    python3 "$repo_root/tools/check_bench.py" \
        --tolerance "${AMNESIA_BENCH_TOLERANCE:-35}"
fi
