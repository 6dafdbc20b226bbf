#!/usr/bin/env bash
# Five-pass CI gate:
#   1. normal build + full ctest (includes the chaos suite, run twice so
#      the deterministic-recording acceptance covers two consecutive runs),
#      then scripts/tcb_loc.sh prints the replay-side line count and
#      sha256_test prints which SHA-256 block function the host ran (both
#      reported, not gated)
#   2. replay perf smoke gate: bench/replay_serving --smoke fails if a
#      warm plan-based replay ever applies at least as many memory bytes
#      as the interpreter, diverges from it bitwise, or the planopt-fused
#      warm replay misses its per-workload speedup gate; --perf-gate
#      records vgg16 and fails unless the fused warm replay beats the
#      interpreter by >= 1.5x AND the optimized kernel engine beats the
#      reference engine by >= 2x wall clock, both bitwise-identical;
#      bench/kernel_bench --smoke fails if any optimized shader-core
#      kernel diverges bitwise from its pinned reference; --obs-gate
#      fails if running with metrics + tracing enabled is more than 5%
#      slower than running with them off; bench/serving_frontend --smoke
#      fails if TCP-served outputs diverge bitwise from in-process replay
#      or the open-loop load points drop/garble any response;
#      bench/serving_frontend --fairness-gate fails if a bucket-limited
#      flood tenant can inflate an unthrottled trickle tenant's p95 past
#      3x its solo baseline or shed any of its requests, or if
#      same-digest batching misses its 1.2x goodput gate / perturbs a
#      single output byte; perfbench/selftest.py builds the serving
#      benchmark (BENCHMARK.json) from this checkout and fails if a short
#      run of any workload is incorrect, misses a metric or its unit,
#      repeats a virtual time inexactly across seeds, or loses its traced
#      structure
#   3. ASan+UBSan build (-DGRT_SANITIZE=address,undefined) + full ctest,
#      which includes the footprint soundness sweep
#      (footprint_soundness_test: static footprint ⊇ observed writes on
#      every example network and chaos schedule) — the sweep's raw
#      physical-write observers are exactly the code ASan should watch
#   4. TSan build (-DGRT_SANITIZE=thread) + the concurrency suites: the
#      serving engine (src/serve, including the shared device pool and
#      the epoll TCP front-end's multi-connection suite), the
#      observability layer (src/obs, which every hot layer now calls from
#      worker threads); any reported race fails the gate even when the
#      assertions all pass
#   5. clang-tidy over the library sources (src/, including the footprint
#      analysis in src/analysis/footprint and the plan superoptimizer in
#      src/analysis/planopt) and the trace tool (profile: .clang-tidy);
#      any warning fails the gate. Skips cleanly where clang-tidy is
#      absent.
#
# Usage: scripts/ci.sh [jobs]
#   jobs  parallel build/test jobs (default: nproc)
#
# Note: builds use the default CMake build type on purpose. Do not add
# -DCMAKE_BUILD_TYPE=Release here — GCC 12 trips a stringop-overread
# false positive under -O2 -Werror in the TEE key-derivation code.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

# Every temporary file of every pass lives in one directory, removed by
# the one EXIT trap whichever pass ends the run.
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

run_pass() {
  local label="$1" build_dir="$2"
  shift 2
  echo "=== ${label}: configure (${build_dir}) ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${label}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${label}: ctest ==="
  ctest --test-dir "${build_dir}" -j "${JOBS}" --output-on-failure
}

run_pass "pass 1/5 (normal)" build-ci
# The chaos suite asserts per-schedule determinism in-process; running the
# whole suite a second time also proves determinism across runs.
echo "=== pass 1/5: ctest (second run, determinism check) ==="
ctest --test-dir build-ci -j "${JOBS}" --output-on-failure
echo "=== pass 1/5: replay-side TCB line count ==="
scripts/tcb_loc.sh
# Reported, not gated: a host without the x86 SHA extensions runs (and so
# tests) only the portable SHA-256 block function.
echo "=== pass 1/5: SHA-256 block function on this host ==="
build-ci/tests/common/sha256_test --gtest_filter='*ChosenIsOneOfTheTwo' |
  grep 'SHA-256 block function:'

echo "=== pass 2/5: replay perf smoke gate ==="
cmake --build build-ci -j "${JOBS}" --target replay_serving
build-ci/bench/replay_serving --smoke --out "${TMP_DIR}/smoke.json"
echo "=== pass 2/5: planopt fused-replay + kernel wall perf gate (vgg16) ==="
build-ci/bench/replay_serving --perf-gate
echo "=== pass 2/5: kernel bitwise smoke gate ==="
cmake --build build-ci -j "${JOBS}" --target kernel_bench
build-ci/bench/kernel_bench --smoke --out "${TMP_DIR}/kernel.json"
echo "=== pass 2/5: observability overhead gate ==="
build-ci/bench/replay_serving --obs-gate
echo "=== pass 2/5: serving front-end perf smoke gate ==="
cmake --build build-ci -j "${JOBS}" --target serving_frontend
build-ci/bench/serving_frontend --smoke --out "${TMP_DIR}/frontend.json"
echo "=== pass 2/5: multi-tenant fairness + batching smoke gate ==="
build-ci/bench/serving_frontend --fairness-gate --out "${TMP_DIR}/fairness.json"
echo "=== pass 2/5: serving benchmark self-test ==="
python3 perfbench/selftest.py

run_pass "pass 3/5 (asan+ubsan)" build-ci-san \
  -DGRT_SANITIZE=address,undefined

# TSan: build only the multi-threaded suites (the rest of the repo is
# single-threaded and already covered by passes 1 and 3). TSan does not
# fail the process exit code for races by default here, so grep the log.
echo "=== pass 4/5: tsan concurrency gate (serve + obs) ==="
cmake -B build-ci-tsan -S . -DGRT_SANITIZE=thread
cmake --build build-ci-tsan -j "${JOBS}" --target service_test pool_test \
  scheduler_test frontend_test obs_concurrency_test
TSAN_LOG="${TMP_DIR}/tsan.log"
build-ci-tsan/tests/serve/service_test 2>&1 | tee "${TSAN_LOG}"
build-ci-tsan/tests/serve/pool_test 2>&1 | tee -a "${TSAN_LOG}"
build-ci-tsan/tests/serve/scheduler_test 2>&1 | tee -a "${TSAN_LOG}"
build-ci-tsan/tests/serve/frontend_test 2>&1 | tee -a "${TSAN_LOG}"
build-ci-tsan/tests/obs/obs_concurrency_test 2>&1 | tee -a "${TSAN_LOG}"
if grep -E 'WARNING: ThreadSanitizer' "${TSAN_LOG}" >/dev/null; then
  echo "=== pass 4/5: ThreadSanitizer reported races — failing ===" >&2
  exit 1
fi

# clang-tidy emits warnings on stdout but exits 0 for warnings-only runs;
# treat any diagnostic line as a gate failure so new warnings can't land.
echo "=== pass 5/5: clang-tidy lint gate ==="
TIDY_LOG="${TMP_DIR}/tidy.log"
scripts/run_clang_tidy.sh build-ci src tools/grt_trace.cc 2>&1 | tee "${TIDY_LOG}"
if grep -E 'warning:|error:' "${TIDY_LOG}" >/dev/null; then
  echo "=== pass 5/5: clang-tidy reported diagnostics — failing ===" >&2
  exit 1
fi

echo "=== CI: all passes green ==="
