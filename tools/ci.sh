#!/usr/bin/env bash
# CI driver: configure -> build -> ctest -> fats_analyze -> bench gate ->
# clang-tidy -> tsan smoke of the parallel-execution tests -> chaos step
# (crash matrix + lossy-wire fault matrix) under asan-ubsan.
#
# Usage:
#   tools/ci.sh [PRESET]            # default preset: release
#   CI_BASE_REF=origin/main tools/ci.sh release
#
# PRESET is a CMakePresets.json configure preset (release, asan-ubsan,
# tsan).  clang-tidy runs on the files changed relative to CI_BASE_REF when
# that ref exists (keeps CI latency proportional to the diff), otherwise on
# the whole tree; it is skipped gracefully when clang-tidy is not installed.
set -euo pipefail

cd "$(dirname "$0")/.."

PRESET="${1:-release}"
JOBS="$(nproc 2> /dev/null || echo 2)"

echo "=== [1/8] configure (preset: $PRESET) ==="
cmake --preset "$PRESET"

echo "=== [2/8] build ==="
cmake --build --preset "$PRESET" -j "$JOBS"

echo "=== [3/8] ctest ==="
ctest --preset "$PRESET" -j "$JOBS"

BUILD_DIR="build-${PRESET}"
if [[ "$PRESET" == "asan-ubsan" ]]; then
  BUILD_DIR="build-asan"
fi

echo "=== [4/8] fats_analyze (static contract analysis) ==="
# Hard gate: the analyzer (legacy lint rules + RNG/reduction/failpoint/
# Status/layering passes) must report zero unsuppressed violations.  The
# JSON and SARIF reports are uploaded as CI artifacts.
"$BUILD_DIR/tools/fats_analyze" --root . \
  --baseline tools/fats_analyze_baseline.json \
  --json fats_analyze_report.json \
  --sarif fats_analyze_report.sarif

echo "=== [5/8] bench gate ==="
# Build + run the micro-kernel benchmarks with minimal iterations and diff
# the timings against the checked-in BENCH_kernels.json via bench_check.
# Hard gate: any kernel more than BENCH_MAX_REGRESS_PCT slower than the
# baseline fails the build.  The band is wide because CI machines are noisy;
# it exists to catch order-of-magnitude regressions (a kernel falling off
# the blocked/SIMD path), not single-digit drift.
BENCH_MAX_REGRESS_PCT="${BENCH_MAX_REGRESS_PCT:-75}"
if [[ "$PRESET" == "release" ]]; then
  "$BUILD_DIR/bench/bench_micro_kernels" \
    --benchmark_min_time=0.01 \
    --benchmark_out="$BUILD_DIR/BENCH_kernels_current.json" \
    --benchmark_out_format=json > /dev/null
  if [[ -f BENCH_kernels.json ]]; then
    "$BUILD_DIR/tools/bench_check" BENCH_kernels.json \
      "$BUILD_DIR/BENCH_kernels_current.json" \
      --max-regress "$BENCH_MAX_REGRESS_PCT"
  else
    echo "bench gate: no BENCH_kernels.json baseline; ran benchmarks only"
  fi
  # Same gate for the unlearning request service: O(1) triage staying O(1)
  # (BM_TriageIndexed regressing toward BM_TriageScan is exactly the kind of
  # order-of-magnitude break this catches).
  "$BUILD_DIR/bench/bench_unlearn_service" \
    --benchmark_min_time=0.01 \
    --benchmark_out="$BUILD_DIR/BENCH_unlearn_current.json" \
    --benchmark_out_format=json > /dev/null
  if [[ -f BENCH_unlearn.json ]]; then
    "$BUILD_DIR/tools/bench_check" BENCH_unlearn.json \
      "$BUILD_DIR/BENCH_unlearn_current.json" \
      --max-regress "$BENCH_MAX_REGRESS_PCT"
  else
    echo "bench gate: no BENCH_unlearn.json baseline; ran benchmarks only"
  fi
  # And for the transport: frame codec throughput plus channel delivery
  # under 0/5/20% loss (a reliable-channel regression shows up as
  # attempts_per_msg exploding long before timings drift).
  "$BUILD_DIR/bench/bench_transport" \
    --benchmark_min_time=0.01 \
    --benchmark_out="$BUILD_DIR/BENCH_transport_current.json" \
    --benchmark_out_format=json > /dev/null
  if [[ -f BENCH_transport.json ]]; then
    "$BUILD_DIR/tools/bench_check" BENCH_transport.json \
      "$BUILD_DIR/BENCH_transport_current.json" \
      --max-regress "$BENCH_MAX_REGRESS_PCT"
  else
    echo "bench gate: no BENCH_transport.json baseline; ran benchmarks only"
  fi
  # And for the state layer: index-codec throughput, tiered history-log
  # append/cold-read, tree aggregation, and lazy shard materialization
  # (resident_bytes exploding in the spilled BM_HistoryLogAppend row means
  # the memory bound — the layer's reason to exist — broke).
  "$BUILD_DIR/bench/bench_state" \
    --benchmark_min_time=0.01 \
    --benchmark_out="$BUILD_DIR/BENCH_state_current.json" \
    --benchmark_out_format=json > /dev/null
  if [[ -f BENCH_state.json ]]; then
    "$BUILD_DIR/tools/bench_check" BENCH_state.json \
      "$BUILD_DIR/BENCH_state_current.json" \
      --max-regress "$BENCH_MAX_REGRESS_PCT"
  else
    echo "bench gate: no BENCH_state.json baseline; ran benchmarks only"
  fi
  # End-to-end harness smoke: builds e2ebench/ and runs all three workloads
  # at tiny sizes in both modes. Its traced mode drives a TimingSink that
  # relies on the trainer's per-pass event order, and every run must
  # reproduce its recorded work ledger.
  python3 e2ebench/smoke.py
  # Timing-independent tier: each workload's --tiny work digest at seed 7
  # pins its sampling history, journal bytes and final parameters, with no
  # timing gate. A change that moves one on purpose re-pins it here.
  for pin in train_cnn:f443f50a million_clients:b4b87b15 \
             unlearn_stream:b3f03844; do
    workload="${pin%%:*}"
    want="${pin#*:}"
    out="$(python3 e2ebench/run.py --workload "$workload" --seed 7 \
             --seconds 1 --tiny)"
    got="$(sed -n 's/^work digest: \([0-9a-f]*\).*/\1/p' <<< "$out")"
    if [[ "$got" != "$want" ]]; then
      echo "work digest of $workload at --tiny --seed 7: got '$got'," \
           "pinned $want"
      exit 1
    fi
    echo "work digest of $workload: $got (pinned)"
  done
else
  echo "bench gate: skipped (preset $PRESET; benches run on release only)"
fi

echo "=== [6/8] clang-tidy ==="
CHANGED=()
if [[ -n "${CI_BASE_REF:-}" ]] && git rev-parse --verify -q "$CI_BASE_REF" > /dev/null; then
  while IFS= read -r f; do
    [[ -f "$f" ]] && CHANGED+=("$f")
  done < <(git diff --name-only "$CI_BASE_REF"...HEAD -- \
             'src/*.cc' 'src/*.cpp' 'tools/*.cc' 'bench/*.cc' 'examples/*.cpp')
  if [[ ${#CHANGED[@]} -eq 0 ]]; then
    echo "clang-tidy: no C++ sources changed vs $CI_BASE_REF; skipping"
  else
    tools/run_clang_tidy.sh -p "$BUILD_DIR" "${CHANGED[@]}"
  fi
else
  tools/run_clang_tidy.sh -p "$BUILD_DIR"
fi

echo "=== [7/8] tsan smoke (parallel-execution tests) ==="
# kernel_contract_test calls the serial GEMM kernels concurrently from 1/2/4/7
# pool workers (the concurrent-caller contract: thread-local packing scratch,
# one shared PackedB), so it is race-checked on every preset, not just the
# full tsan leg. transport_test rides along for the LocalTransport blocking
# producer/consumer pair (the wire's only cross-thread handoff).
# crash_matrix_test runs with TSan's default die_after_fork: its forked
# children must start no thread, which holds because the journal writes
# synchronously on the training thread.
if [[ "$PRESET" == "tsan" ]]; then
  echo "tsan smoke: preset is already tsan; full suite covered above"
else
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS" \
    --target thread_pool_test parallel_exactness_test \
    kernel_contract_test crash_matrix_test transport_test
  # Run the binaries directly: only these targets are built, so the
  # build-tsan ctest manifest is incomplete.
  build-tsan/tests/thread_pool_test
  build-tsan/tests/parallel_exactness_test
  build-tsan/tests/kernel_contract_test
  build-tsan/tests/transport_test
  build-tsan/tests/crash_matrix_test
fi

echo "=== [8/8] chaos: crash matrix + fault matrix under asan-ubsan ==="
# Re-run the failpoint kill/recover matrix with sanitizers on: recovery code
# paths (torn-tail truncation, journal replay, re-execution) are exactly the
# ones a fuzzer won't reach and a crash will. transport_exactness_test is
# the lossy-wire half of the chaos step — deterministic drop/corrupt/
# truncate/duplicate injection with the trace-identity contract asserted —
# so its frame-mangling paths (bit flips, mid-header cuts) run with the
# memory sanitizers watching.
if [[ "$PRESET" == "asan-ubsan" ]]; then
  echo "chaos step: preset is already asan-ubsan; full suite covered above"
else
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$JOBS" \
    --target crash_matrix_test journal_test failpoint_test \
    transport_exactness_test
  # Run the binaries directly: only these targets are built, so the
  # build-asan ctest manifest is incomplete.
  build-asan/tests/failpoint_test
  build-asan/tests/journal_test
  build-asan/tests/crash_matrix_test
  build-asan/tests/transport_exactness_test
fi

echo "=== CI OK (preset: $PRESET) ==="
