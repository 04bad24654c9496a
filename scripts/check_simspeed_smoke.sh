#!/usr/bin/env bash
# Smoke-test the active-set scheduler end to end: run a short
# mostly-idle ring point and a mesh point through hrsim_cli, validate
# the emitted metrics artifacts against the checked-in schema, and
# assert the ring point actually fast-forwarded quiescent cycles
# (sched.skipped_cycles > 0 at C = 0.01). Run as the simspeed_smoke
# ctest, so "the scheduler silently degraded into never skipping"
# fails CI rather than only showing up as a benchmark regression.
#
# Usage: scripts/check_simspeed_smoke.sh HRSIM_CLI METRICS_CHECK \
#            SCHEMA [OUTDIR]
set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: $0 HRSIM_CLI METRICS_CHECK SCHEMA [OUTDIR]" >&2
    exit 2
fi

cli=$1
checker=$2
schema=$3
outdir=${4:-.}

ring_out="$outdir/simspeed_smoke_ring.json"
mesh_out="$outdir/simspeed_smoke_mesh.json"

# A small ring (2:4) and mesh (3x3), shortened: the ring point runs
# at C = 0.01 so the network goes quiescent often.
"$cli" --ring 2:4 --line 64 --c 0.01 \
    --warmup 1000 --batch 1000 --batches 3 \
    --metrics-out "$ring_out" >/dev/null
"$cli" --mesh 3 --line 64 \
    --warmup 1000 --batch 1000 --batches 3 \
    --metrics-out "$mesh_out" >/dev/null

"$checker" "$schema" "$ring_out"
"$checker" "$schema" "$mesh_out"

python3 - "$ring_out" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
metrics = doc["points"][-1]["metrics"]
skipped = metrics.get("sched.skipped_cycles")
if skipped is None:
    raise SystemExit(
        "sched.skipped_cycles missing: active scheduler not engaged")
if skipped <= 0:
    raise SystemExit(
        f"sched.skipped_cycles = {skipped}: a C=0.01 ring must "
        "fast-forward quiescent gaps")
print(f"simspeed smoke ok: sched.skipped_cycles = {skipped}")
PY
