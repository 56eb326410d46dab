#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Workloads: ``serve``, ``fleet``, ``explore`` (see ``perfbench/README.md``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- every ``end_to_end`` metric
of ``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric
with ``--trace 1``.  Lines above it print each metric with its unit and
sample count or base, and each output check.  A failed check exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve", "fleet", "explore")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program to measure ({} has no repro package)".format(src),
              file=sys.stderr)
        return 2
    # Run from a checkout: the program under src/, the benchmark as a package.
    if os.path.dirname(os.path.abspath(__file__)) in sys.path:
        sys.path.remove(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [ROOT, src]
    # Traces must come from this checkout, never from a shared disk cache.
    os.environ.pop("REPRO_TRACE_CACHE", None)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)

    workload = importlib.import_module("perfbench." + args.workload)
    result = workload.run(args.seed, args.seconds, bool(args.trace), ROOT)

    for note in result.notes:
        print(note)
    print("-- end to end (untraced run) --")
    for line in result.metrics.lines:
        print("  " + line)
    if args.trace:
        print("-- per layer (traced run) --")
        for line in result.layers.lines:
            print("  " + line)
    for name, ok, detail in result.checks:
        print("check {}: {}{}".format(name, "ok" if ok else "FAILED", " ({})".format(detail) if detail else ""))
    section = "per_layer" if args.trace else "end_to_end"
    source = result.layers if args.trace else result.metrics
    metrics = source.subset([m["name"] for m in contract[section]])
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
