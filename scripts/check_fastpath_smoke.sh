#!/usr/bin/env bash
# Smoke-test the worm-streaming fast path end to end: a saturated
# MeshSmall point (outstandingT=4 keeps worms long and back to back)
# must report router.streamed_flits > 0 in its metrics artifact — the
# streaming counters only count flits forwarded on an already-owned
# output port, so zero would mean the fast path silently degraded
# into re-arbitrating every flit. A ring point checks the NIC/IRI
# counters the same way.
#
# Usage: scripts/check_fastpath_smoke.sh HRSIM_CLI METRICS_CHECK \
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

mesh_out="$outdir/fastpath_smoke_mesh.json"
ring_out="$outdir/fastpath_smoke_ring.json"

# Saturated MeshSmall / RingSmall analogues of bench_simspeed.
"$cli" --mesh 3 --line 64 --t 4 \
    --warmup 1000 --batch 1000 --batches 3 \
    --metrics-out "$mesh_out" >/dev/null
"$cli" --ring 2:4 --line 64 --t 4 \
    --warmup 1000 --batch 1000 --batches 3 \
    --metrics-out "$ring_out" >/dev/null

"$checker" "$schema" "$mesh_out"
"$checker" "$schema" "$ring_out"

python3 - "$mesh_out" "$ring_out" <<'PY'
import json
import sys


def metrics(path):
    with open(path) as fh:
        return json.load(fh)["points"][-1]["metrics"]


def expect_streaming(path, name):
    value = metrics(path).get(name)
    if value is None:
        raise SystemExit(f"{name} missing from {path}")
    if value <= 0:
        raise SystemExit(f"{name} = {value} in {path}: a saturated "
                         "point must stream worm bodies")
    return value


streamed = expect_streaming(sys.argv[1], "router.streamed_flits")
nic = expect_streaming(sys.argv[2], "nic.streamed_flits")
iri = expect_streaming(sys.argv[2], "iri.streamed_flits")

print(f"fastpath smoke ok: router.streamed_flits = {streamed:.0f}, "
      f"nic.streamed_flits = {nic:.0f}, "
      f"iri.streamed_flits = {iri:.0f}")
PY
