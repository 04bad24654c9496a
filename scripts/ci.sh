#!/usr/bin/env bash
# The repository's CI pipeline, runnable locally and from any CI
# runner. Four stages, in order of cost:
#
#  1. release  — Release build with warnings as errors (-Werror),
#                the layout_smoke gate first, then the full ctest
#                suite (unit tests, paper-conformance checks, and
#                the script gates: metrics_schema_check,
#                docs_check, simspeed_smoke, fastpath_smoke,
#                adaptive_smoke, fault_smoke, ckpt_smoke).
#  2. tsan     — -DHRSIM_SANITIZE=thread, the concurrency-sensitive
#                tests (sweep engine, adaptive run control, the
#                scheduler's bitmap scans, fault replay under parallel
#                sweeps, checkpointed sweeps, the golden digest
#                corpus): the parallel sweep's work-claiming/result
#                reaping must be race-free.
#  3. asan     — -DHRSIM_SANITIZE=address, the same test set plus the
#                container/stats units: the hot-path ring buffers and
#                the adaptive batch storage index with raw masks and
#                grow under churn, exactly where AddressSanitizer
#                pays for itself; the golden corpus runs the whole
#                bit-identity grid under it.
#  4. bench    — bench/e2e/run.py --smoke: a Release build of the
#                end-to-end benchmark (run.py always configures
#                Release), every workload timed at smoke length with
#                its JSON result parsed, model outputs exact against
#                bench/e2e/expected.json, the traced driver's outputs
#                identical to the plain run's (trace.identical), and a
#                corrupted expectation that must fail. The committed
#                BENCH_simspeed.json is never touched; the
#                --metrics-out schema check lives in stage 1
#                (metrics_schema_check, simspeed_smoke).
#
# Usage: scripts/ci.sh [release|tsan|asan|bench|all]   (default: all)
set -euo pipefail

stage=${1:-all}
jobs=${HRSIM_CI_JOBS:-$(nproc)}
src=$(cd "$(dirname "$0")/.." && pwd)

# Tests worth re-running under the sanitizers: everything that
# exercises threads, the adaptive controller, or raw-index storage.
# LayoutSmoke/StablePool cover the scheduler's bitmap scans and the
# placement-new pool — raw masks and lifetimes, ASan/TSan territory.
# Golden replays the whole bit-identity grid (rings, meshes, faults,
# trace replay) against its recorded digests. PacketTable checks the
# flits' raw slot indices into each network's packet table: slot
# lifetimes, kill tokens and broadcast copies across the grid.
# FlowControl, DoubleSpeed and RingNetwork drive the IRI halves
# through the wait/escape path and the double-clocked global ring.
# Slotted and Broadcast drive the slotted IRI halves and their shared
# transfer queues; MeshNetwork, MeshRouter and ActiveSetScheduler the
# routers' own sleep flags and the wake mask they are built with.
SANITIZED_FILTER='Sweep|AdaptiveSystem|RunController|RingDeque|StagedFifo|BatchMeans|TQuantile|Mser|Fault|LayoutSmoke|StablePool|Checkpoint|Golden|PacketTable|FlowControl|DoubleSpeed|RingNetwork|Slotted|Broadcast|MeshNetwork|MeshRouter|ActiveSetScheduler'

run_release() {
    cmake -B "$src/build-ci" -S "$src" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-Werror
    cmake --build "$src/build-ci" -j "$jobs"
    # Fail fast on the bitmap scan-order invariants before the full
    # suite: a broken bitmap scan fails hundreds of downstream tests
    # with less useful diagnostics.
    ctest --test-dir "$src/build-ci" -R '^layout_smoke$' \
        --output-on-failure
    ctest --test-dir "$src/build-ci" -j 2 --output-on-failure
}

run_sanitizer() {
    local kind=$1
    local dir="$src/build-$kind"
    local sanitize
    case "$kind" in
      tsan) sanitize=thread ;;
      asan) sanitize=address ;;
      *) echo "unknown sanitizer stage: $kind" >&2; exit 2 ;;
    esac
    cmake -B "$dir" -S "$src" -DHRSIM_SANITIZE="$sanitize"
    cmake --build "$dir" -j "$jobs" --target hrsim_tests
    "$dir/tests/hrsim_tests" \
        --gtest_filter="*${SANITIZED_FILTER//|/*:*}*"
}

run_bench() {
    python3 "$src/bench/e2e/run.py" --smoke
}

case "$stage" in
  release) run_release ;;
  tsan) run_sanitizer tsan ;;
  asan) run_sanitizer asan ;;
  bench) run_bench ;;
  all)
    run_release
    run_sanitizer tsan
    run_sanitizer asan
    run_bench
    ;;
  *)
    echo "usage: $0 [release|tsan|asan|bench|all]" >&2
    exit 2
    ;;
esac

echo "ci: stage '$stage' passed"
