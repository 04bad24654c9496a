#!/usr/bin/env bash
# Run the simulator-throughput benchmark and emit BENCH_simspeed.json
# (google-benchmark JSON: node-cycles/s per config and sweep-engine
# points/s) so the performance trajectory
# is tracked across PRs. Also emits a metrics artifact with hrsim_cli
# and validates it against scripts/metrics_schema.json, so a schema
# regression fails the same CI step that tracks performance.
#
# Usage: scripts/run_simspeed.sh [output.json] [metrics.json]
#        scripts/run_simspeed.sh --compare BASELINE.json \
#            [output.json] [metrics.json]
#   BUILD_DIR=build   build tree containing bench/bench_simspeed
#
# --compare runs the benchmark (3 repetitions by default, so the
# regression gate sees a median, not one noisy sample), then prints
# the per-benchmark speedup of the fresh run against BASELINE.json
# (old/new rate columns). When the library was built Release, any
# benchmark whose median rate is more than 10% slower than the
# baseline fails the script (exit 1); non-Release builds only warn,
# since Debug timings say nothing about the hot path. Sequential
# comparisons against a days-old baseline confound code and machine
# drift — scripts/ab_bench.sh interleaves two live build trees and
# is the trustworthy way to call a regression.
#
# A benchmark harness built Debug silently distorts every timing, so
# a library_build_type of "debug" in the emitted JSON context fails
# the script outright; set HRSIM_ALLOW_DEBUG_BENCH=1 to override for
# local debugging.
#
# Overwriting a git-tracked baseline (the default BENCH_simspeed.json)
# is refused when the work tree has uncommitted changes, or when the
# benchmark binary reports a "-dirty" hrsim_git — a baseline nobody
# can reproduce from a commit is worse than none. Write to an
# untracked path for scratch runs, or set HRSIM_ALLOW_DIRTY_BASELINE=1
# to override.
set -euo pipefail

BASELINE=""
if [[ "${1:-}" == --compare ]]; then
    shift
    BASELINE=${1:?--compare needs a baseline json}
    shift
    if [[ ! -r "$BASELINE" ]]; then
        echo "error: baseline $BASELINE not readable" >&2
        exit 1
    fi
    # Snapshot now: the natural invocation compares against the very
    # file the fresh run is about to overwrite (BENCH_simspeed.json).
    BASELINE_SNAP=$(mktemp)
    cp "$BASELINE" "$BASELINE_SNAP"
fi

cleanup() {
    [[ -n "${BASELINE_SNAP:-}" ]] && rm -f "$BASELINE_SNAP"
    [[ -n "${TMP_OUT:-}" ]] && rm -f "$TMP_OUT"
    return 0
}
trap cleanup EXIT

BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_simspeed.json}
METRICS_OUT=${2:-BENCH_simspeed_metrics.json}
BENCH="$BUILD_DIR/bench/bench_simspeed"
CLI="$BUILD_DIR/tools/hrsim_cli"
CHECK="$BUILD_DIR/tools/metrics_check"
SCHEMA="$(dirname "$0")/metrics_schema.json"

if [[ ! -x "$BENCH" ]]; then
    echo "error: $BENCH not built (cmake -B $BUILD_DIR -S . && \
cmake --build $BUILD_DIR -j)" >&2
    exit 1
fi

# Is OUT a git-tracked file (i.e. a committed baseline)? If so, only
# a clean tree may regenerate it.
REPO_ROOT=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel \
    2>/dev/null || true)
OUT_TRACKED=0
if [[ -n "$REPO_ROOT" ]]; then
    OUT_DIR=$(cd "$(dirname "$OUT")" 2>/dev/null && pwd || true)
    if [[ -n "$OUT_DIR" ]]; then
        OUT_ABS="$OUT_DIR/$(basename "$OUT")"
        OUT_REL=${OUT_ABS#"$REPO_ROOT"/}
        if git -C "$REPO_ROOT" ls-files --error-unmatch "$OUT_REL" \
            >/dev/null 2>&1; then
            OUT_TRACKED=1
        fi
    fi
fi
if [[ "$OUT_TRACKED" == 1 &&
      -z "${HRSIM_ALLOW_DIRTY_BASELINE:-}" ]] &&
    ! git -C "$REPO_ROOT" diff --quiet HEAD 2>/dev/null; then
    echo "error: refusing to overwrite committed baseline $OUT from \
a dirty tree; commit first, write to an untracked path, or set \
HRSIM_ALLOW_DIRTY_BASELINE=1" >&2
    exit 1
fi

# Comparisons gate on the median, which needs >= 3 repetitions to
# mean anything; plain tracking runs keep the cheap single rep.
if [[ -n "$BASELINE" ]]; then
    REPS=${HRSIM_BENCH_REPS:-3}
else
    REPS=${HRSIM_BENCH_REPS:-1}
fi

# The run lands in a temp file first: the artifact is validated
# before it replaces OUT, so a failing check can never leave a
# half-trusted baseline behind.
TMP_OUT=$(mktemp)
"$BENCH" \
    --benchmark_out="$TMP_OUT" \
    --benchmark_out_format=json \
    --benchmark_repetitions="$REPS" \
    --benchmark_min_time="${HRSIM_BENCH_MIN_TIME:-0.5}"

# A Debug benchmark harness invalidates every number in the artifact;
# fail loudly instead of letting the distorted rates into a baseline.
# Likewise a "-dirty" build provenance when OUT is a committed
# baseline: the binary may predate the pre-run clean-tree check (git
# state is baked in at configure time).
HRSIM_OUT_TRACKED="$OUT_TRACKED" python3 - "$TMP_OUT" <<'PY'
import json
import os
import sys

with open(sys.argv[1]) as fh:
    context = json.load(fh).get("context", {})
library_build = str(context.get("library_build_type", "")).lower()
if library_build == "debug":
    if os.environ.get("HRSIM_ALLOW_DEBUG_BENCH"):
        print("warning: benchmark library built debug; timings are "
              "not comparable (HRSIM_ALLOW_DEBUG_BENCH set)")
    else:
        sys.exit("error: benchmark library was built debug; rebuild "
                 "Release or set HRSIM_ALLOW_DEBUG_BENCH=1 to "
                 "proceed anyway")
git_describe = str(context.get("hrsim_git", ""))
if (os.environ.get("HRSIM_OUT_TRACKED") == "1"
        and "-dirty" in git_describe
        and not os.environ.get("HRSIM_ALLOW_DIRTY_BASELINE")):
    sys.exit(f"error: benchmark binary reports hrsim_git = "
             f"{git_describe}; refusing to install it as the "
             "committed baseline (reconfigure/rebuild from a clean "
             "tree, or set HRSIM_ALLOW_DIRTY_BASELINE=1)")
PY

mv "$TMP_OUT" "$OUT"
chmod 644 "$OUT"
TMP_OUT=""
echo "wrote $OUT"

if [[ -n "$BASELINE" ]]; then
    python3 - "$BASELINE_SNAP" "$OUT" "$BASELINE" <<'PY'
import json
import statistics
import sys

REGRESSION_TOLERANCE = 0.10  # >10% slower than baseline fails

def rates(path):
    """benchmark name -> median primary rate counter (node_cycles/s
    or points/s) across repetitions, skipping aggregate rows."""
    with open(path) as fh:
        doc = json.load(fh)
    samples = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        rate = row.get("node_cycles/s", row.get("points/s"))
        if rate is not None:
            samples.setdefault(row["name"], []).append(float(rate))
    return doc, {
        name: statistics.median(reps)
        for name, reps in samples.items()
    }

base_doc, base = rates(sys.argv[1])
new_doc, new = rates(sys.argv[2])

build_type = str(
    new_doc.get("context", {}).get("hrsim_build_type", "")).lower()
enforce = build_type == "release"

print(f"\ncomparison vs {sys.argv[3]} "
      f"(build_type={build_type or 'unknown'}):")
print("note: the baseline JSON was taken on an earlier run of this "
      "box —\nfrequency scaling, thermals and background load may "
      "have drifted\nsince, so sequential comparisons confound code "
      "and machine. For a\ntrustworthy verdict build both revisions "
      "and use the interleaved\nscripts/ab_bench.sh instead.")
print(f"{'benchmark':<24} {'baseline':>12} {'current':>12} "
      f"{'speedup':>8}")
regressions = []
for name in base:
    if name not in new:
        print(f"{name:<24} {base[name]:>12.4g} {'missing':>12}")
        continue
    ratio = new[name] / base[name] if base[name] > 0 else float("inf")
    flag = ""
    if ratio < 1.0 - REGRESSION_TOLERANCE:
        regressions.append((name, ratio))
        flag = "  <-- regression"
    print(f"{name:<24} {base[name]:>12.4g} {new[name]:>12.4g} "
          f"{ratio:>7.2f}x{flag}")
for name in new:
    if name not in base:
        print(f"{name:<24} {'(new)':>12} {new[name]:>12.4g}")

if regressions:
    worst = min(regressions, key=lambda item: item[1])
    msg = (f"{len(regressions)} benchmark(s) regressed >10% "
           f"(worst: {worst[0]} at {worst[1]:.2f}x)")
    if enforce:
        print(f"FAIL: {msg}")
        sys.exit(1)
    print(f"warning: {msg} (not enforced: build_type is "
          f"{build_type or 'unknown'}, not release)")
else:
    print("no regressions beyond 10%")
PY
fi

if [[ -x "$CLI" && -x "$CHECK" ]]; then
    "$CLI" --ring 3:3:12 --warmup 1000 --batch 1000 --batches 3 \
        --metrics-out "$METRICS_OUT" >/dev/null
    "$CHECK" "$SCHEMA" "$METRICS_OUT"
    echo "wrote $METRICS_OUT (schema-valid)"
else
    echo "warning: hrsim_cli/metrics_check not built; skipping the \
metrics schema check" >&2
fi
