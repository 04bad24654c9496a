#!/usr/bin/env bash
# Emit a small metrics artifact with hrsim_cli and validate it against
# the checked-in schema. Run as a ctest (metrics_schema_check), so
# every build proves its --metrics-out output is schema-valid.
#
# Usage: scripts/check_metrics_schema.sh HRSIM_CLI METRICS_CHECK SCHEMA [OUT]
set -euo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: $0 HRSIM_CLI METRICS_CHECK SCHEMA [OUT]" >&2
    exit 2
fi

cli=$1
checker=$2
schema=$3
out=${4:-metrics_schema_check.json}

"$cli" --ring 4:4 --warmup 500 --batch 500 --batches 2 \
    --metrics-every 400 --metrics-out "$out" >/dev/null
"$checker" "$schema" "$out"
