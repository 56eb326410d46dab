#!/usr/bin/env python3
"""Steadiness runs: every workload on several seeds, twice, summarised.

    python3 perfbench/steady.py --runs 10 --sets 2 --out perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed) with tracing off,
one after another, for every workload in ``BENCHMARK.json``; then does
the same again for each further set.  Per set, workload and end-to-end
metric it records the median, quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile
range / median) and the metric's bound.  A spread at or above its bound
means the metric cannot tell a regression of that size from noise on
this machine; a later set's median worse than the first set's by more
than the bound means the same across time.  ``--out`` writes the
layout of the committed ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError("{} seed {} failed:\n{}".format(workload, seed, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results, bounds) -> dict:
    """Median, quartiles and spread of each metric over ``results``."""
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bound,
            "values": values,
        }
    return summary


def shift(first: dict, later: dict, better: str) -> float:
    """How much worse ``later``'s median is than ``first``'s, as a share."""
    if better == "higher":
        return (first["median"] - later["median"]) / first["median"]
    return (later["median"] - first["median"]) / first["median"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload per set")
    parser.add_argument("--sets", type=int, default=2, help="passes over every workload, one after another")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.runs < 2 or args.sets < 1:
        parser.error("--runs must be at least 2 and --sets at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    workloads = [w["name"] for w in contract["workloads"]]
    seeds = list(range(1, args.runs + 1))
    host = {"cpus": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version()}
    report = {
        "note": "Steadiness runs: {} seeds per workload, {} set(s) one after another, tracing off, "
                "made with perfbench/steady.py. spread = (q3 - q1) / median; shift = how much "
                "worse a set's median is than the first set's.".format(args.runs, args.sets),
        "run_seconds": contract["run_seconds"],
        "host": host,
        "sets": [],
    }
    for index in range(args.sets):
        current = {"seeds": seeds, "workloads": {}}
        for workload in workloads:
            results = [_run(workload, seed, contract["run_seconds"]) for seed in seeds]
            if not all(r["correct"] for r in results):
                print("{}: an output check failed".format(workload), file=sys.stderr)
                return 1
            current["workloads"][workload] = summarise(results, bounds)
            for name, s in current["workloads"][workload].items():
                line = "set {} {:<8s} {:<16s} median {:>12.5g} {:<16s} spread {:.3f}".format(
                    index, workload, name, s["median"], s["unit"], s["spread"] or 0.0)
                if index:
                    first = report["sets"][0]["workloads"][workload][name]
                    s["shift"] = shift(first, s, better[name])
                    line += " shift {:+.3f}".format(s["shift"])
                print(line + " (bound {})".format(s["bound"]), flush=True)
        report["sets"].append(current)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
