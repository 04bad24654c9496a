#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent (A) and a change (B).

    python3 bench/e2e/compare.py A/ B/

Each directory holds one file per run, named <workload>.<anything>
(for example ring_sat.3.json), whose last line is the JSON result line
bench/e2e/run.py prints. Runs pair up by file name across the two
directories, so give the two sides the same seeds and names.

For every workload and metric the report gives each side's median and
quartiles. End-to-end metrics also get a verdict against the bound
BENCHMARK.json fixes for them:

    worse       B's median is worse than A's by more than the bound
    unresolved  a side's spread (IQR / median) is wider than the bound,
                and not every run of B beats every run of A
    better      B wins at least 9 of 10 pairs and the medians differ by
                more than A's IQR
    unchanged   anything else

Exit status: 1 if any verdict is worse or any run failed its checks.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(directory):
    """{workload: [(run name, result line), ...]} sorted by name."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        lines = path.read_text().strip().splitlines()
        if not lines:
            raise SystemExit(f"compare.py: {path} is empty")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            raise SystemExit(f"compare.py: last line of {path} is not JSON")
        runs.setdefault(path.name.split(".")[0], []).append(
            (path.name, result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, higher_is_better):
    """Verdict of B against A for one end-to-end metric."""
    sign = 1.0 if higher_is_better else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    if sign * (med_b - med_a) < -bound * abs(med_a):
        return "worse"
    spread = max((qa[2] - qa[0]) / abs(med_a) if med_a else 0.0,
                 (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0)
    b_beats_all = min(sign * x for x in b) > max(sign * x for x in a)
    if spread > bound and not b_beats_all:
        return "unresolved"
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and sign * (med_b - med_a) > qa[2] - qa[0]):
        return "better"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=SPEC_PATH)
    args = parser.parse_args()

    spec = json.loads(args.spec.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    side_a, side_b = load_runs(args.parent), load_runs(args.change)

    bad = False
    for workload in sorted(set(side_a) | set(side_b)):
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload, [])
        print(f"== {workload}: {len(runs_a)} parent runs, "
              f"{len(runs_b)} change runs")
        for side, runs in (("parent", runs_a), ("change", runs_b)):
            failed = [name for name, r in runs if not r["correct"]]
            if failed:
                bad = True
                print(f"   {side} runs FAILED their checks: "
                      + ", ".join(failed))
        if not runs_a or not runs_b:
            continue
        names = sorted(set(runs_a[0][1]["metrics"])
                       & set(runs_b[0][1]["metrics"]))
        for name in names:
            a = [r["metrics"][name]["value"] for _, r in runs_a]
            b = [r["metrics"][name]["value"] for _, r in runs_b]
            qa, qb = quartiles(a), quartiles(b)
            meta = metrics.get(name, {})
            change = ((qb[1] - qa[1]) / abs(qa[1]) * 100 if qa[1]
                      else 0.0)
            text = "-"
            if "bound" in meta:
                text = verdict(a, b, meta["bound"],
                               meta["better"] == "higher")
                bad = bad or text == "worse"
            print(f"   {name:36} A {qa[1]:<11.5g} [{qa[0]:.5g}, "
                  f"{qa[2]:.5g}]  B {qb[1]:<11.5g} [{qb[0]:.5g}, "
                  f"{qb[2]:.5g}] {meta.get('unit', '')}  "
                  f"{change:+6.2f}%  {text}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
