#!/usr/bin/env python3
"""The end-to-end benchmark of hrsim: build, run, check, report.

Run from the repository root:

    python3 bench/e2e/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace [0|1]] [--smoke] [--out DIR]

Builds bench/e2e (its own CMake project, into build-e2e/) and runs each
workload in its own single-threaded process. Every metric is printed
by name with its unit; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. The model outputs
of every run are checked against expected.json and against the
conservation identities; a failed check fails every operation of the
workload and the exit code is 1.

    --trace        per-layer metrics from the traced driver instead of
                   the end-to-end ones; spans go to DIR/trace_<W>.jsonl
    --smoke        without --workload: every workload at a short
                   length, the traced driver at three seeds, and a run
                   against a corrupted expected.json that must fail
    --record       rewrite expected.json from the current build

Workloads, metrics and their bounds are defined in BENCHMARK.json at
the repository root; README.md explains them.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
BUILD_DIR = ROOT / "build-e2e"
BINARY = BUILD_DIR / "hrsim_e2e"
EXPECTED_PATH = HERE / "expected.json"

DEFAULT_SEED = 1
# Seeds whose model outputs expected.json records.
RECORDED_SEEDS = range(16)
SMOKE_TRACE_SEEDS = (1, 2, 3)
# Any one run of the binary must end well inside three minutes.
RUN_TIMEOUT_S = 170
# Model-accuracy reference: the paper's Fig. 14 crossovers (nodes).
PAPER_CROSSOVER = {"16": 16, "32": 25, "64": 27, "128": 36}


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the benchmark binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no hrsim source tree at {ROOT}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "hrsim_e2e", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode:
            raise BenchError("build failed: " + " ".join(step))


def run_binary(workload, seed, seconds, trace, smoke, out_dir):
    """One workload in its own process; returns its parsed report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out_dir)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: hrsim_e2e exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def expected_key(workload, smoke, seed):
    """expected.json's key for one workload, length and seed."""
    return f"{workload}|{'smoke' if smoke else 'full'}|{seed}"


def check(report, expected):
    """Return (attempted, failed, problems) for one report."""
    reps = report["reps"]
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    problems = []
    if "traced" in report:
        traced = report["traced"]
        attempted += traced["ops"]
        failed += traced["failed"]
        if not traced["identical"]:
            problems.append("traced driver diverged from System")
        if not traced["probes_ok"]:
            problems.append("checkpoint restore did not reproduce the run")
    outputs = [rep["outputs"] for rep in reps if rep["failed"] == 0]
    if any(out != outputs[0] for out in outputs):
        problems.append("repetitions of one seed disagree")
    if not all(rep["conserved"] for rep in reps):
        problems.append("conservation identity violated")
    want = expected.get(expected_key(report["workload"], report["smoke"],
                                     report["seed"]))
    if want is not None and outputs and outputs[0] != want:
        diff = sorted(k for k in want if outputs[0].get(k) != want[k])
        problems.append("outputs differ from expected.json: "
                        + ", ".join(diff))
    if problems:
        failed = attempted
    return attempted, failed, problems


def metric_block(report, spec, trace):
    """The result line's metrics: every end-to-end (or per-layer)
    metric BENCHMARK.json names, with its unit."""
    block = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        value = report["metrics"].get(metric["name"])
        if value is None:
            raise BenchError(f"{report['workload']}: no value for "
                             f"{metric['name']}")
        block[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return block


def print_report(report, block, problems):
    workload = report["workload"]
    for name, metric in block.items():
        print(f"{workload:12} {name:36} {metric['value']:<22.10g} "
              f"{metric['unit']}")
    tail = report.get("tail")
    if tail and not report["trace"]:
        print(f"{workload:12} {'tail: chunk_ms p95 (not gated)':36} "
              f"{tail['op_ms_p95']:<22.10g} ms  "
              f"(p50 {tail['op_ms_p50']:.4g}, n={tail['samples']})")
    crossover = report.get("crossover")
    if crossover and not report["smoke"]:
        for line, by_t in crossover.items():
            got = "/".join("none" if x is None else f"{x:.1f}"
                           for x in by_t.values())
            print(f"{workload:12} crossover {line:>3} B lines, T=1/2/4: "
                  f"{got} nodes (paper ~{PAPER_CROSSOVER[line]}; "
                  f"not gated)")
    for problem in problems:
        print(f"{workload:12} CHECK FAILED: {problem}")


def run_workload(args, spec, expected, workload, seed, trace, smoke):
    report = run_binary(workload, seed, args.seconds, trace, smoke,
                        args.out)
    attempted, failed, problems = check(report, expected)
    block = metric_block(report, spec, trace)
    print_report(report, block, problems)
    return attempted, failed, block


def load_json(path):
    with open(path) as f:
        return json.load(f)


def record(args, spec):
    """Rewrite expected.json: one repetition per workload, length and
    recorded seed."""
    expected = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for smoke in (False, True):
            for seed in RECORDED_SEEDS:
                report = run_binary(workload, seed, 0, False, smoke,
                                    args.out)
                _, failed, problems = check(report, {})
                if failed or problems:
                    raise BenchError(f"{workload} seed {seed}: "
                                     f"{problems or 'failed operations'}")
                key = expected_key(workload, smoke, seed)
                expected[key] = report["reps"][0]["outputs"]
                log(f"recorded {key}")
    # One line per entry keeps diffs readable.
    entries = [f"  {json.dumps(key)}: {json.dumps(outputs)}"
               for key, outputs in expected.items()]
    with open(args.expected, "w") as f:
        f.write("{\n" + ",\n".join(entries) + "\n}\n")


def smoke_suite(args, spec, expected):
    """Short runs of everything. Returns (checks, failed checks, wall
    seconds of the untraced smoke runs)."""
    start = time.monotonic()
    workloads = [w["name"] for w in spec["workloads"]]
    checks = failures = 0
    for workload in workloads:
        _, failed, _ = run_workload(args, spec, expected, workload,
                                    DEFAULT_SEED, False, True)
        checks += 1
        failures += failed > 0
    short_s = time.monotonic() - start
    print(f"smoke: every workload at smoke length in {short_s:.2f} s")

    for workload in workloads:
        for seed in SMOKE_TRACE_SEEDS:
            _, failed, block = run_workload(args, spec, expected,
                                            workload, seed, True, True)
            checks += 1
            failures += failed > 0 or block["trace.identical"]["value"] != 1

    # A corrupted expectation must make the benchmark fail.
    corrupt = json.loads(json.dumps(expected))
    corrupt[expected_key(workloads[0], True, DEFAULT_SEED)][
        "remote_issued"] += 1
    corrupt_path = args.out / "expected_corrupt.json"
    with open(corrupt_path, "w") as f:
        json.dump(corrupt, f)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workloads[0], "--smoke", "--expected", str(corrupt_path),
         "--out", str(args.out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=RUN_TIMEOUT_S, cwd=ROOT)
    checks += 1
    if proc.returncode == 0:
        failures += 1
        print("smoke: CHECK FAILED: a corrupted expected.json passed")
    else:
        print("smoke: a corrupted expected.json fails as it should")
    print(f"smoke: {checks - failures}/{checks} checks passed in "
          f"{time.monotonic() - start:.2f} s")
    return checks, failures, short_s


def parse_args(spec):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--expected", type=Path, default=EXPECTED_PATH)
    parser.add_argument("--out", type=Path, default=BUILD_DIR / "out")
    args = parser.parse_args()
    if args.seconds is None:
        # A smoke run is one short repetition per workload.
        args.seconds = 0 if args.smoke else spec["run_seconds"]
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def main():
    try:
        spec = load_json(SPEC_PATH)
    except (OSError, ValueError) as err:
        log(f"run.py: cannot read {SPEC_PATH}: {err}")
        return 2
    args = parse_args(spec)
    try:
        build()
        if args.record:
            record(args, spec)
            return 0
        expected = load_json(args.expected)
        if args.smoke and args.workload is None:
            checks, failures, short_s = smoke_suite(args, spec, expected)
            result = {"correct": failures == 0, "attempted": checks,
                      "failed": failures,
                      "metrics": {"smoke_s": {"value": short_s,
                                              "unit": "s"}}}
        else:
            workloads = ([args.workload] if args.workload else
                         [w["name"] for w in spec["workloads"]])
            attempted = failed = 0
            metrics = {}
            for workload in workloads:
                a, f, block = run_workload(args, spec, expected, workload,
                                           args.seed, args.trace,
                                           args.smoke)
                attempted += a
                failed += f
                prefix = "" if args.workload else workload + "."
                metrics.update({prefix + k: v for k, v in block.items()})
            result = {"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}
    except (BenchError, OSError, ValueError, KeyError) as err:
        log(f"run.py: {err}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
