#!/usr/bin/env bash
# Numeric flags must parse as a whole token: each malformed value
# below must make hrsim_cli exit non-zero with an error naming the
# flag and the value, instead of wrapping ("-1" into a 2^64 - 1
# warmup) or silently truncating ("1e4" into 1, "0.04x" into 0.04).
#
# Usage: scripts/check_cli_bad_numbers.sh HRSIM_CLI
set -uo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 HRSIM_CLI" >&2
    exit 2
fi

cli=$1
failures=0

# expect_rejected FLAG VALUE
expect_rejected() {
    local flag=$1 value=$2 out status
    out=$("$cli" --ring 2:4 --batches 1 --batch 100 --warmup 100 \
        "$flag" "$value" 2>&1 >/dev/null)
    status=$?
    local want="bad value for $flag: '$value'"
    if [[ $status -eq 0 ]]; then
        echo "FAIL: $flag '$value' exited 0" >&2
        failures=$((failures + 1))
    elif [[ $out != *"$want"* ]]; then
        echo "FAIL: $flag '$value': stderr lacks \"$want\":" >&2
        echo "$out" | head -n 2 >&2
        failures=$((failures + 1))
    fi
}

expect_rejected --warmup -1
expect_rejected --warmup 1e4
expect_rejected --warmup ""
expect_rejected --seed -1
expect_rejected --batches 1e4
expect_rejected --line 0.5
expect_rejected --line 0
expect_rejected --line 24
expect_rejected --line 262128
expect_rejected --c 0.04x
expect_rejected --c ""
expect_rejected --r 1x
expect_rejected --mesh ""
expect_rejected --mesh 0
expect_rejected --t -3
expect_rejected --jobs -1

if [[ $failures -ne 0 ]]; then
    echo "cli_bad_numbers: $failures case(s) failed" >&2
    exit 1
fi
echo "cli_bad_numbers ok"
