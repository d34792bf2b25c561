#!/usr/bin/env python3
"""Per-layer self time of a ugcbench trace.

    python3 bench/ugcbench/breakdown.py .bench_build/traces/serve-light-seed1.jsonl

A span's self time is its duration minus the time its child spans cover.
Spans are grouped into the layers named in README.md (graph, frontend,
midend, vm, api, serve). The report also gives each GraphVM's summed run
scope, the tracing overhead (the traced phase's median latency over the
untraced one's), and checks that, for the workload's queries, queue wait
+ API overhead + the profile's compile and run scopes account for each
query's latency within 5% at the median. The parts are measured by
different clocks (the load thread's submit and completion stamps,
Engine's QueryResult::wallMs, the profile's scopes), so the check fails
when one of them does not fit inside the next. Exit status 1 when the
check fails.
"""

import json
import statistics
import sys
from collections import defaultdict

TOLERANCE = 0.05


def layer_of(name):
    if name == "loadCached":
        return "graph"
    if name == "compileSource":
        return "frontend"
    if name == "compile" or name.startswith("pass:"):
        return "midend"
    if name in ("run", "round") or name.startswith(("apply:", "vertex:")):
        return "vm"
    if name == "handleLine":
        return "serve"
    if name.startswith("probe:"):
        return "probe"
    return "api"  # query (queue wait + engine overhead), setup, warmup


def load(path):
    meta, spans = {}, {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record["type"] == "meta":
                meta = record
            else:
                spans[record["id"]] = record
    return {"meta": meta, "spans": spans}


def analyze(trace):
    spans = trace["spans"]
    children = defaultdict(list)
    for span in spans.values():
        if span["parent"]:
            children[span["parent"]].append(span)

    self_us = defaultdict(float)
    by_name = defaultdict(float)
    for span in spans.values():
        covered = sum(c["dur_us"] for c in children[span["id"]])
        own = span["dur_us"] - covered
        self_us[layer_of(span["name"])] += own
        by_name[span["name"]] += own

    # Workload queries are top-level "query" spans; probe queries sit
    # under a probe span.
    errors, parts, by_backend = [], defaultdict(float), defaultdict(float)
    for span in spans.values():
        if span["name"] != "query" or span["parent"] or "wall_ms" not in span:
            continue
        latency = span["dur_us"] / 1e3
        inner = defaultdict(float)
        for child in children[span["id"]]:
            inner[child["name"]] += child["dur_us"] / 1e3
        queue = latency - span["wall_ms"]
        overhead = span["wall_ms"] - inner["run"] - inner["compile"]
        accounted = (max(queue, 0.0) + max(overhead, 0.0) + inner["run"] +
                     inner["compile"])
        errors.append(abs(accounted - latency) / latency if latency else 0.0)
        parts["queue wait"] += queue
        parts["api overhead"] += overhead
        parts["run scope"] += inner["run"]
        parts["compile scope"] += inner["compile"]
        by_backend[span.get("tag", "").split("/")[0]] += inner["run"]

    meta = trace["meta"]
    plain = meta.get("untraced_latency_p50_ms")
    traced = meta.get("traced_latency_p50_ms")
    median_error = statistics.median(errors) if errors else float("nan")
    return {
        "self_us": dict(self_us),
        "by_name": dict(by_name),
        "parts_ms": dict(parts),
        "run_ms_by_backend": dict(by_backend),
        "queries": len(errors),
        "median_error": median_error,
        "latency_ok": bool(errors) and median_error <= TOLERANCE,
        "overhead": traced / plain if plain and traced else None,
    }


def print_report(report, out=sys.stdout):
    total = sum(v for k, v in report["self_us"].items() if k != "probe")
    print("layer        self ms    share (of non-probe spans)", file=out)
    for layer, us in sorted(report["self_us"].items(), key=lambda kv: -kv[1]):
        share = us / total if total and layer != "probe" else float("nan")
        print(f"{layer:10} {us / 1e3:10.1f}  {share:8.3f}", file=out)
    print("top spans by self time:", file=out)
    top = sorted(report["by_name"].items(), key=lambda kv: -kv[1])[:8]
    for name, us in top:
        print(f"  {name:24} {us / 1e3:10.1f} ms", file=out)
    print(f"latency of {report['queries']} queries (ms, summed): " +
          ", ".join(f"{k} {v:.1f}" for k, v in report["parts_ms"].items()),
          file=out)
    print("run scope by GraphVM (ms, summed): " +
          ", ".join(f"{k} {v:.1f}" for k, v in
                    sorted(report["run_ms_by_backend"].items())), file=out)
    verdict = "ok" if report["latency_ok"] else "FAILED"
    print(f"latency accounting: median error {report['median_error']:.4f} "
          f"(limit {TOLERANCE}) {verdict}", file=out)
    if report["overhead"] is not None:
        print(f"tracing overhead: traced/untraced median latency "
              f"{report['overhead']:.3f}", file=out)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report = analyze(load(sys.argv[1]))
    print_report(report)
    return 0 if report["latency_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
