#!/usr/bin/env python3
"""Compare two ugcbench result sets (JSONL from run.py --runs ... --out).

    python3 bench/ugcbench/compare.py parent.jsonl change.jsonl

For every workload and end-to-end metric it applies the choosing-metrics
rules with the bounds of BENCHMARK.json:

  gain        the change wins at least 9 of 10 runs paired by seed (ties
              count for neither side) and the medians differ by more than
              the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  neither, and either side's interquartile range is wider
              than the bound — unless every change run beats every parent
              run;
  same        otherwise.

Exit status 1 when any metric regressed or any run failed a check.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path):
    runs = defaultdict(dict)  # workload -> seed -> result
    with open(path) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                runs[entry["workload"]][entry["seed"]] = entry["result"]
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, (q3 - q1) / statistics.median(values)


def verdict(parent, change, lower_is_better, bound, paired):
    def better(a, b):
        return a < b if lower_is_better else a > b

    med_p, med_c = statistics.median(parent), statistics.median(change)
    iqr_p, rel_p = spread(parent)
    _, rel_c = spread(change)
    wins = sum(better(c, p) for p, c in paired)
    decided = sum(c != p for p, c in paired)
    if (paired and wins >= 0.9 * len(paired) and decided and
            abs(med_c - med_p) > iqr_p):
        return "gain", wins
    worse = (med_c - med_p) if lower_is_better else (med_p - med_c)
    if worse > bound * abs(med_p):
        return "regression", wins
    if max(rel_p, rel_c) > bound and not all(
            better(c, p) for c in change for p in parent):
        return "unresolved", wins
    return "same", wins


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    print(f"{'workload':12} {'metric':16} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'wins':>6} {'bound':>6} verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        failed = sum(r["failed"] for side in (parent, change)
                     for r in side[workload].values())
        if failed:
            print(f"{workload:12} {failed} failed operations")
            status = 1
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"]
                 for r in parent[workload].values()]
            c = [r["metrics"][name]["value"]
                 for r in change[workload].values()]
            paired = [(parent[workload][s]["metrics"][name]["value"],
                       change[workload][s]["metrics"][name]["value"])
                      for s in seeds]
            result, wins = verdict(p, c, metric["better"] == "lower",
                                   metric["bound"], paired)
            status |= result == "regression"
            med_p, med_c = statistics.median(p), statistics.median(c)
            delta = (med_c - med_p) / med_p if med_p else float("nan")
            print(f"{workload:12} {name:16} {med_p:12.6g} {med_c:12.6g} "
                  f"{delta:+8.3f} {wins:>3}/{len(paired):<2} "
                  f"{metric['bound']:6} {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
