#!/usr/bin/env bash
# Interleaved A/B of two source trees on the end-to-end benchmark.
#
# Usage: scripts/ab_bench.sh [--pairs N] [--workload W] TREE_A TREE_B OUT
#   TREE_A/TREE_B  source checkouts (A = parent, B = change); each
#                  side's bench/e2e/run.py builds its own build-e2e/
#   --pairs N      seeds 1..N, one run per side and workload (default 10)
#   --workload W   one BENCHMARK.json workload (default: all of them)
#
# Seed S writes OUT/A/W.S.json and OUT/B/W.S.json (run.py's output;
# build logs go to OUT/A.log and OUT/B.log). A runs first on odd seeds,
# B on even ones, so both sides see the same drift of the box. The
# verdict is TREE_B's bench/e2e/compare.py OUT/A OUT/B, and so is the
# exit status.
set -euo pipefail

pairs=10
workloads=""
while [[ $# -gt 0 ]]; do
    case "$1" in
      --pairs) pairs=${2:?--pairs needs a count}; shift 2 ;;
      --workload) workloads=${2:?--workload needs a name}; shift 2 ;;
      *) break ;;
    esac
done
if [[ $# -ne 3 ]]; then
    sed -n '4,8p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
tree_a=$1 tree_b=$2 out=$3
if [[ -z "$workloads" ]]; then
    workloads=$(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' \
        "$tree_b/BENCHMARK.json")
fi
mkdir -p "$out/A" "$out/B"

run_side() { # SIDE TREE WORKLOAD SEED
    python3 "$2/bench/e2e/run.py" --workload "$3" --seed "$4" \
        > "$out/$1/$3.$4.json" 2>> "$out/$1.log" ||
        echo "ab_bench: side $1 $3 seed $4 failed (see $out/$1.log)" >&2
}

for (( seed = 1; seed <= pairs; ++seed )); do
    for w in $workloads; do
        if (( seed % 2 )); then
            run_side A "$tree_a" "$w" "$seed"
            run_side B "$tree_b" "$w" "$seed"
        else
            run_side B "$tree_b" "$w" "$seed"
            run_side A "$tree_a" "$w" "$seed"
        fi
    done
    echo "ab_bench: pair $seed/$pairs done" >&2
done
exec python3 "$tree_b/bench/e2e/compare.py" "$out/A" "$out/B"
