#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
# Two instrumented build trees next to the source:
#   build-asan  AddressSanitizer + UndefinedBehaviorSanitizer,
#               full unit-test suite;
#   build-tsan  ThreadSanitizer, the threaded components only (the
#               parallel simulation executor, the capture/replay
#               pipeline, the benches' fan-out, and concurrent
#               captures sharing one database image, i.e. every test
#               named *Executor*, *Parallel* or *Shared*) - the rest of the
#               simulator is single-threaded and TSan makes it ~10x
#               slower for no additional coverage.
#
# One uninstrumented variant build:
#   build-simd-off  -DTLSIM_SIMD=OFF: the portable scalar kernels are
#               the only ones compiled in (no AVX2 translation units
#               at all), proving the scalar fallback builds and passes
#               the SIMD-sensitive suites on its own.
#
# One poison-instrumented variant build:
#   build-poison  -DTLSIM_POISON=ON: pooled objects carry lifecycle
#               tokens, released storage is scribbled with canaries,
#               and the acquire path verifies reset completeness
#               (base/poison.h — the runtime half of tools/tlslife.py).
#               Runs the pool-discipline suites plus a quick Figure 5
#               under the full invariant auditor.
#
# The static mode needs no execution at all:
#   build-tsa   Clang thread-safety analysis (-Wthread-safety as
#               errors via -DTLSIM_THREAD_SAFETY=ON) - compile-time
#               proof of the lock discipline TSan can only spot-check
#               dynamically. Skipped with a notice when clang++ is not
#               installed; tlslint (pure python) runs either way, with
#               its --json report validated by check_bench_json.py.
#
# Usage: tools/run_sanitizers.sh [asan|tsan|static|simd-off|poison|all]
# (default: all; --static is accepted as a synonym for static.)
#
# Any sanitizer report is fatal: the builds use
# -fno-sanitize-recover=all, so the first finding aborts the test.

set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc)
mode=${1:-all}

run_asan() {
    echo "=== ASan+UBSan: configure ==="
    cmake -S "$root" -B "$root/build-asan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTLSIM_SANITIZE='address;undefined'
    echo "=== ASan+UBSan: build ==="
    cmake --build "$root/build-asan" -j "$jobs"
    echo "=== ASan+UBSan: full unit-test suite ==="
    ctest --test-dir "$root/build-asan" --output-on-failure \
        -j "$jobs" -L '^sanitize$'
    # The critical-path oracle walks attacker-shaped trace bytes
    # (record offsets, checkpoint tables) with hand-rolled index
    # arithmetic; run its unit tests by name so they stay in this leg
    # even if the sanitize label plumbing changes.
    echo "=== ASan+UBSan: critical-path oracle unit tests ==="
    ctest --test-dir "$root/build-asan" --output-on-failure \
        -j "$jobs" -R '^Critpath(Graph|Analyzer|Placement)\.'
}

run_tsan() {
    echo "=== TSan: configure ==="
    cmake -S "$root" -B "$root/build-tsan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTLSIM_SANITIZE=thread
    echo "=== TSan: build ==="
    cmake --build "$root/build-tsan" -j "$jobs" \
        --target test_base test_sim
    echo "=== TSan: threaded components ==="
    ctest --test-dir "$root/build-tsan" --output-on-failure \
        -j "$jobs" -R 'Executor|Parallel|Shared'
}

run_simd_off() {
    echo "=== simd-off: configure (TLSIM_SIMD=OFF) ==="
    cmake -S "$root" -B "$root/build-simd-off" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTLSIM_SIMD=OFF
    echo "=== simd-off: build ==="
    cmake --build "$root/build-simd-off" -j "$jobs" \
        --target test_base test_mem test_sim
    echo "=== simd-off: SIMD-sensitive suites on the scalar build ==="
    ctest --test-dir "$root/build-simd-off" --output-on-failure \
        -j "$jobs" -R 'Simd|Victim|GoldenEquiv|Executor|Varint'
}

run_static() {
    if command -v clang++ >/dev/null 2>&1; then
        echo "=== static: thread-safety analysis (clang) ==="
        cmake -S "$root" -B "$root/build-tsa" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DCMAKE_CXX_COMPILER=clang++ \
            -DTLSIM_THREAD_SAFETY=ON
        # Compiling IS the test: -Werror=thread-safety fails the build
        # on any lock-discipline violation. Nothing is executed.
        cmake --build "$root/build-tsa" -j "$jobs"
    else
        echo "=== static: clang++ not installed; skipping" \
             "thread-safety analysis build ==="
    fi
    echo "=== static: tlslint ==="
    python3 "$root/tools/tlslint.py" --root "$root" \
        --json "$root/build-tlslint-report.json"
    python3 "$root/tools/check_bench_json.py" \
        "$root/build-tlslint-report.json"
    echo "=== static: tlsa ==="
    python3 "$root/tools/tlsa.py" --root "$root" --require-manifests \
        --json "$root/build-tlsa-report.json"
    python3 "$root/tools/check_bench_json.py" \
        "$root/build-tlsa-report.json"
    echo "=== static: tlsdet ==="
    python3 "$root/tools/tlsdet.py" --root "$root" --require-manifests \
        --json "$root/build-tlsdet-report.json"
    python3 "$root/tools/check_bench_json.py" \
        "$root/build-tlsdet-report.json"
    echo "=== static: tlslife ==="
    python3 "$root/tools/tlslife.py" --root "$root" --require-manifests \
        --json "$root/build-tlslife-report.json"
    python3 "$root/tools/check_bench_json.py" \
        "$root/build-tlslife-report.json"
}

run_poison() {
    echo "=== poison: configure (TLSIM_POISON=ON) ==="
    cmake -S "$root" -B "$root/build-poison" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTLSIM_POISON=ON
    echo "=== poison: build ==="
    cmake --build "$root/build-poison" -j "$jobs"
    echo "=== poison: pool-discipline suites under canaries ==="
    ctest --test-dir "$root/build-poison" --output-on-failure \
        -j "$jobs" -R 'Poison|Machine|L2|LineSet|Tracer'
    # The end-to-end cross-check: the quick Figure 5 run cycles every
    # EpochRun through the pool thousands of times with the full I1-I6
    # auditor watching; any recycle-discipline slip trips a canary
    # panic or an audit failure, not a wrong number.
    echo "=== poison: quick Figure 5 under full audit ==="
    "$root/build-poison/bench/bench_figure5_overall" \
        --quick --txns=3 --jobs=2 --audit=full \
        "--json=$root/build-poison/figure5_poison.json"
    python3 "$root/tools/check_bench_json.py" \
        "$root/build-poison/figure5_poison.json"
}

case "$mode" in
  asan)          run_asan ;;
  tsan)          run_tsan ;;
  static|--static) run_static ;;
  simd-off)      run_simd_off ;;
  poison)        run_poison ;;
  all)           run_asan; run_tsan; run_simd_off; run_poison; \
                 run_static ;;
  *) echo "usage: $0 [asan|tsan|static|simd-off|poison|all]" >&2
     exit 2 ;;
esac

echo "sanitizers: all clean"
