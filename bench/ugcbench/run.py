#!/usr/bin/env python3
"""Build and run ugcbench; print its result.

One run, the form BENCHMARK.json's command takes (from the repository root):

    python3 bench/ugcbench/run.py --workload serve-light --seed 1 \
        --seconds 15 --trace 0

builds ugcbench into .bench_build if needed, runs it, and prints as the
last line of stdout one JSON object with "correct", "attempted", "failed"
and every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each with its unit. A traced run also writes
.bench_build/traces/<workload>-seed<n>.jsonl and checks it with
breakdown.py. The exit status is 0 when every check passed, 1 when one
failed (the result is still printed), 2 when no result could be produced.

A series, for spreads and for compare.py:

    python3 bench/ugcbench/run.py --runs 10 [--workloads a,b] [--seed 1] \
        [--trace 0|1] [--out results.jsonl]

runs N runs per workload, alternating workloads, seeds seed..seed+N-1,
appends one line per run to --out, and prints every metric's median,
quartiles and interquartile spread with its unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import breakdown  # noqa: E402  (after the flag above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "ugcbench"
GOLDEN = HERE / "golden" / "fig8_cycles.json"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """No result can be produced (missing sources, build or run failure)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def git_sha():
    """HEAD of a checkout's .git, read without running git (a benchmark
    checkout may not be a repository at all)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"no UGC source tree at {ROOT / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ugcbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"build timed out: {' '.join(step)}") from error
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(step)}")


def run_once(workload, seed, seconds, traced):
    """One ugcbench run. Returns (contract result, full result)."""
    workdir = BUILD / f"run-{os.getpid()}-{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--json", str(out),
               "--golden", str(GOLDEN), "--workdir", str(workdir),
               "--git-sha", git_sha()]
    trace = None
    if traced:
        trace = BUILD / "traces" / f"{workload}-seed{seed}.jsonl"
        trace.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace", str(trace)]
    try:
        try:
            done = subprocess.run(command, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"ugcbench timed out after {RUN_TIMEOUT_S} s"
                             ) from error
        if done.returncode not in (0, 1) or not out.exists():
            raise BenchError(f"ugcbench exited {done.returncode} without a "
                             "result")
        full = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = full["failed"]
    if trace is not None:
        report = breakdown.analyze(breakdown.load(trace))
        breakdown.print_report(report, sys.stderr)
        if not report["latency_ok"]:
            failed += 1
    wanted = spec()["per_layer" if traced else "end_to_end"]
    metrics = {}
    for entry in wanted:
        got = full["metrics"].get(entry["name"])
        if got is None:
            raise BenchError(f"ugcbench reported no {entry['name']}")
        if got["unit"] != entry["unit"]:
            raise BenchError(f"{entry['name']}: unit {got['unit']} != "
                             f"BENCHMARK.json's {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": failed == 0, "attempted": full["attempted"],
              "failed": failed, "metrics": metrics}
    return result, full


def series(args):
    names = [w["name"] for w in spec()["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    rows = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            seed = args.seed + i
            result, full = run_once(workload, seed, args.seconds, args.trace)
            rows[workload].append(result)
            line = {"workload": workload, "seed": seed, "trace": args.trace,
                    "valid": full["valid"], "result": result}
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(line) + "\n")
            log(f"[{workload} seed {seed}] correct={result['correct']} "
                f"valid={full['valid']}")
    bounds = {m["name"]: m.get("bound") for m in
              spec()["end_to_end"] + spec()["per_layer"]}
    print(f"{'workload':12} {'metric':32} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'bound':>6} unit")
    for workload, results in rows.items():
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{workload:12} {name:32} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {unit}")
    failures = sum(r["failed"] for rs in rows.values() for r in rs)
    print(f"failed operations: {failures}")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--workloads", help="series: comma-separated")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=None, help="default: BENCHMARK.json's")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, help="run a series")
    parser.add_argument("--out", help="series: append results here (JSONL)")
    args = parser.parse_args()
    try:
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        if not args.runs and not args.workload:
            parser.error("--workload or --runs is required")
        build()
        if args.runs:
            return series(args)
        result, _ = run_once(args.workload, args.seed, args.seconds,
                             args.trace)
    except (BenchError, OSError, KeyError, ValueError) as error:
        log(f"run.py: {error}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
