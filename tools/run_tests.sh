#!/bin/sh
# Builds and runs the full test suite three ways: plain, under
# AddressSanitizer + UndefinedBehaviorSanitizer, and — for the suites
# that run real threads (see the tsan filter below) — under
# ThreadSanitizer (AMNESIA_SANITIZE, see the top-level CMakeLists.txt).
# Run from anywhere inside the repo:
#
#   tools/run_tests.sh            # all passes
#   tools/run_tests.sh plain      # plain pass only
#   tools/run_tests.sh sanitize   # ASan+UBSan pass only
#   tools/run_tests.sh tsan       # TSan pass (threaded suites) only
#   tools/run_tests.sh faults     # fault-injection/torture pass
#   tools/run_tests.sh perfbench  # benchmark self-test (python3)
#
# The faults pass runs the resilience suites (seeded fault injection,
# storage crash-schedule torture, degraded-mode end-to-end) plain and
# under ASan+UBSan, with the torture sweep cranked up. Scale it with
# AMNESIA_TORTURE_ITERS=<n>; a torture failure prints the failing
# iteration's seed — replay exactly that schedule with
# AMNESIA_TORTURE_SEED=<seed>. All fault suites use fixed seeds, so
# every pass is deterministic; the regular plain/sanitize/tsan passes
# already include them at the tier-1 default of 1000 iterations.
#
# The perfbench pass runs perfbench/selftest.py, which builds the
# benchmark (its own CMake package over src/) into .bench_build/
# and smoke-runs every workload, so a src/ change that breaks the
# benchmark's build or its checks fails here too. `all` includes it.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode=${1:-all}
jobs=$(nproc 2>/dev/null || echo 4)

run_pass() {
    build_dir=$1
    test_filter=$2
    shift 2
    echo "== configure $build_dir ($*)"
    cmake -B "$repo_root/$build_dir" -S "$repo_root" "$@" >/dev/null
    echo "== build $build_dir"
    cmake --build "$repo_root/$build_dir" -j "$jobs"
    echo "== ctest $build_dir"
    ctest --test-dir "$repo_root/$build_dir" --output-on-failure -j "$jobs" \
        ${test_filter:+-R "$test_filter"}
    # Smoke-run the bench harness so it cannot bit-rot between perf PRs
    # (full runs are tools/run_benches.sh's job). Executed inside the build
    # dir so its JSON artifact does not clobber a real one at the repo root.
    # Both SHA-256 compression backends run, so the portable fallback stays
    # exercised on CPUs where Sha256 itself runs SHA-NI.
    if [ -z "$test_filter" ]; then
        echo "== bench smoke $build_dir"
        (cd "$repo_root/$build_dir" &&
            ./bench/bench_crypto_primitives \
                --benchmark_filter='BM_Sha256/64$|BM_Sha256Compress/' \
                --benchmark_min_time=0.01 >/dev/null)
    fi
}

run_perfbench() {
    echo "== perfbench self-test"
    (cd "$repo_root" && python3 perfbench/selftest.py)
}

# The TSan pass covers the binaries that exercise threads against the
# epoll loop: EventLoop::post from foreign threads, the HttpServer worker
# pool over TcpTransport, and the securechan framing used on both. The
# net tests include the injected-EINTR/connect-failure cases, so syscall
# fault paths run under TSan too. The tracing suites join the pass
# because the span store (sharded rings + open table) and trace
# propagation over real TCP are multithreaded hot paths. The shard
# suites drive the multi-reactor deployment (SO_REUSEPORT acceptors, one
# EventLoop thread per shard, cross-shard mailbox posts), which is the
# most thread-heavy path in the tree. The cluster suites add the
# replicated deployments: the TCP rounds test runs a whole two-replica
# cluster on a reactor thread while the main thread drives clients. The
# deployment matrix runs every (shards, replicas) cell on reactor
# threads too, including the TCP primary-crash drill at two and three
# replicas. The profiler suites hammer SIGPROF delivery against
# concurrent scrapes and the slowlog suites drive the sharded flight
# recorder, so both join. obs_test brings the counter hammered by four
# threads at once.
tsan_filter='net_|securechan_stream|obs_test|obs_trace|trace_propagation|shard_|securechan_resume|websvc_pool|cluster_|deployment_|obs_profiler_|slowlog_'

# Everything driven by resilience::FaultInjector plus the degraded-mode
# end-to-end suites; cluster_ brings the seeded primary-crash replays and
# their torture sweep, deployment_ the crash drill on every replicated
# cell over both transports, and storage_codec_fuzz the hostile-bytes
# sweeps over the AMDB codecs; obs_profiler_ includes the signal-safety
# smoke (profiler armed across the storage torture schedules), slowlog_
# the faulted-leg scrapes, and net_rpc the hostile RPC frames.
fault_filter='resilience_|storage_torture|net_tcp|net_rpc|rendezvous_cloud|obs_test|trace_propagation|shard_|securechan_resume|websvc_pool|cluster_|deployment_|storage_codec_fuzz|obs_profiler_|slowlog_'

case "$mode" in
plain)
    run_pass build ""
    ;;
sanitize)
    run_pass build-san "" -DAMNESIA_SANITIZE=address,undefined
    ;;
tsan)
    run_pass build-tsan "$tsan_filter" -DAMNESIA_SANITIZE=thread
    ;;
perfbench)
    run_perfbench
    ;;
faults)
    AMNESIA_TORTURE_ITERS=${AMNESIA_TORTURE_ITERS:-5000}
    export AMNESIA_TORTURE_ITERS
    echo "== fault pass (AMNESIA_TORTURE_ITERS=$AMNESIA_TORTURE_ITERS)"
    run_pass build "$fault_filter"
    run_pass build-san "$fault_filter" -DAMNESIA_SANITIZE=address,undefined
    ;;
all)
    run_pass build ""
    run_pass build-san "" -DAMNESIA_SANITIZE=address,undefined
    run_pass build-tsan "$tsan_filter" -DAMNESIA_SANITIZE=thread
    run_perfbench
    ;;
*)
    echo "usage: $0 [plain|sanitize|tsan|faults|perfbench|all]" >&2
    exit 2
    ;;
esac

echo "== all requested passes green"
