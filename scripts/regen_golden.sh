#!/usr/bin/env bash
# Rewrite the golden digest corpora (tests/golden/digests.txt and
# tests/golden/ckpt_digests.txt) from the current source tree: builds
# hrsim_tests, then reruns the Golden suite with HRSIM_GOLDEN_OUT and
# HRSIM_GOLDEN_CKPT_OUT pointing at them, which makes the suite write
# its digests instead of comparing them.
#
# The corpus is the regression oracle for everything a run computes
# or traces, so a rewrite is a deliberate act: review the diff and
# record the reason in CHANGES.md (DESIGN.md section 7). Regenerate
# from a build with the flit-trace hooks compiled in (the default);
# the suite refuses otherwise.
#
# Usage: scripts/regen_golden.sh [BUILD_DIR]   (default: build)
set -euo pipefail

src=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$src/build}
corpus="$src/tests/golden/digests.txt"
ckpt_corpus="$src/tests/golden/ckpt_digests.txt"

cmake -B "$build" -S "$src" >/dev/null
cmake --build "$build" -j "${HRSIM_JOBS:-2}" --target hrsim_tests
mkdir -p "$(dirname "$corpus")"
HRSIM_GOLDEN_OUT="$corpus" HRSIM_GOLDEN_CKPT_OUT="$ckpt_corpus" \
    "$build/tests/hrsim_tests" --gtest_filter='Golden.*'
echo "regen_golden: wrote $corpus and $ckpt_corpus"
git -C "$src" diff --stat -- tests/golden || true
