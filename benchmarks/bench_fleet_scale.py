#!/usr/bin/env python
"""Fleet-loop scale benchmark: nodes*intervals per second.

Runs the full hardened cluster loop (per-node stepping, telemetry
filtering and ledger recording, cached-pricer capping) at several
roster sizes and compares against the uncached pipeline: the same loop
with ``tests/fleet_oracle.py``'s uncached ``predict_mixed`` pricing
swapped into every capper trial.  Stepping, filtering and ledger
recording have one kernel each, so both modes share them and the
comparison isolates the cached pricer.

Gates (CI runs the small-roster smoke)::

    python benchmarks/bench_fleet_scale.py --sizes 64 --intervals 8

1. cached >= ``--min-speedup`` x the uncached pipeline's
   nodes*intervals/s on the same roster (default 5x);
2. zero decision divergence: shares, VF decisions, verdicts, and
   quarantine health must be bit-identical between the two modes;
3. the largest cached roster must beat the 64-node uncached loop's
   absolute nodes*intervals/s (the 10k-node acceptance criterion; at
   smoke sizes the comparison roster shrinks with ``--sizes``).

Writes ``results/fleet_scale.txt`` and a ``fleet_scale`` entry in
``BENCH_results.json``.
"""

import argparse
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, ".."))
sys.path.insert(0, _HERE)

from _harness import record_bench  # noqa: E402
from tests import fleet_oracle  # noqa: E402


def _build_manager(registry, n_nodes, cached, seed):
    """The hardened loop on ``n_nodes``; ``cached=False`` swaps in the
    uncached ``predict_mixed`` pricer, the only difference between the
    modes.

    The roster carries ~5% telemetry fault rates on a third of the
    nodes plus one dead stream: the equivalence is proven on
    fault-injected mixed-SKU rosters, not a clean lab fleet.
    """
    from repro.fleet.cluster_cap import ClusterPowerManager
    from repro.fleet.simulator import make_fleet
    from repro.serve.service import SKU_SPECS

    sku_list = [SKU_SPECS[k] for k in sorted(SKU_SPECS)]
    specs = [sku_list[i % len(sku_list)] for i in range(n_nodes)]
    fleet = make_fleet(
        specs, registry, base_seed=seed, fault_specs=fleet_oracle.FAULTS
    )
    manager = ClusterPowerManager(
        fleet,
        cap_schedule=52.0 * n_nodes,
        policy="waterfill",
        harden=True,
    )
    return manager if cached else fleet_oracle.per_node(manager)


def _timed_run(manager, intervals):
    started = time.perf_counter()
    run = manager.run(intervals)
    wall = time.perf_counter() - started
    return run, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[64, 1024, 10000],
        help="cached-pricer roster sizes to sweep (default: 64 1024 10000)",
    )
    parser.add_argument(
        "--intervals", type=int, default=4,
        help="decision intervals per roster size (default: 4)",
    )
    parser.add_argument(
        "--baseline-nodes", type=int, default=None,
        help="uncached-pricer roster size (default: min(64, smallest "
        "--sizes entry))",
    )
    parser.add_argument(
        "--baseline-intervals", type=int, default=None,
        help="uncached-pricer run length (default: --intervals)",
    )
    parser.add_argument(
        "--equivalence-nodes", type=int, default=None,
        help="roster size of the divergence check (default: baseline)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required cached/uncached nodes*intervals/s ratio (default: 5)",
    )
    parser.add_argument(
        "--seed", type=int, default=20141213,
        help="base seed for training and fleets",
    )
    args = parser.parse_args(argv)

    from repro.fleet.registry import ModelRegistry
    from repro.serve.service import SKU_SPECS
    from repro.workloads.suites import spec_combinations

    baseline_nodes = args.baseline_nodes or min(64, min(args.sizes))
    baseline_intervals = args.baseline_intervals or args.intervals
    equivalence_nodes = args.equivalence_nodes or baseline_nodes

    # Train before any clock starts: the bench scores the online loop.
    registry = ModelRegistry(
        combos=spec_combinations()[:3],
        bench_intervals=4,
        cool_intervals=20,
        base_seed=args.seed,
    )
    for sku in sorted(SKU_SPECS):
        registry.get(SKU_SPECS[sku])

    total_started = time.perf_counter()

    # Uncached-pricer pipeline: the pricing reference.
    uncached_mgr = _build_manager(
        registry, baseline_nodes, cached=False, seed=args.seed
    )
    _run, uncached_wall = _timed_run(uncached_mgr, baseline_intervals)
    uncached_rate = baseline_nodes * baseline_intervals / uncached_wall

    # Cached-pricer pipeline, matched roster (the speedup gate) ...
    matched_mgr = _build_manager(
        registry, baseline_nodes, cached=True, seed=args.seed
    )
    _run, matched_wall = _timed_run(matched_mgr, baseline_intervals)
    matched_rate = baseline_nodes * baseline_intervals / matched_wall
    speedup = matched_rate / uncached_rate

    # ... and the scale curve.
    curve = []
    for size in args.sizes:
        mgr = _build_manager(registry, size, cached=True, seed=args.seed)
        _run, wall = _timed_run(mgr, args.intervals)
        curve.append((size, size * args.intervals / wall, wall))

    # Decision-divergence check: bit-identical shares, health verdicts,
    # measured trajectories, and downstream capper/filter state.
    div_a = _build_manager(
        registry, equivalence_nodes, cached=True, seed=args.seed
    )
    div_b = _build_manager(
        registry, equivalence_nodes, cached=False, seed=args.seed
    )
    run_a, _ = _timed_run(div_a, baseline_intervals)
    run_b, _ = _timed_run(div_b, baseline_intervals)
    divergence = 0
    for attr in (
        "caps",
        "shares",
        "node_powers",
        "node_true_powers",
        "node_instructions",
        "node_quality",
        "node_healthy",
    ):
        if getattr(run_a, attr) != getattr(run_b, attr):
            divergence += 1
    if div_a.state_dict() != div_b.state_dict():
        divergence += 1

    total_wall = time.perf_counter() - total_started

    top_size, top_rate, top_wall = curve[-1]
    lines = [
        "Fleet-loop scale: hardened cluster loop, nodes*intervals/s",
        "==========================================================",
        "roster mix: {} SKUs interleaved, ~5% fault rates + one dead "
        "stream".format(len(SKU_SPECS)),
        "uncached-pricer pipeline: {} nodes x {} intervals -> "
        "{:.0f} node-intervals/s".format(
            baseline_nodes, baseline_intervals, uncached_rate
        ),
        "cached-pricer pipeline (same roster): {:.0f} node-intervals/s "
        "({:.1f}x)".format(matched_rate, speedup),
        "scale curve (cached pricer):",
    ]
    for size, rate, wall in curve:
        lines.append(
            "  {:>6d} nodes x {} intervals: {:>8.0f} node-intervals/s "
            "({:.1f}s)".format(size, args.intervals, rate, wall)
        )
    lines += [
        "decision divergence (cached vs uncached pricer, {} nodes): "
        "{}".format(equivalence_nodes, divergence),
        "gate: cached >= {:.0f}x uncached and {}-node cached beats "
        "{}-node uncached absolute rate, with zero divergence".format(
            args.min_speedup, top_size, baseline_nodes
        ),
    ]
    report_text = "\n".join(lines)
    print(report_text)

    results_dir = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "results"
    )
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "fleet_scale.txt"), "w") as handle:
        handle.write(report_text + "\n")

    # The metric keys predate per-node stepping ("batched" is the
    # cached-pricer loop, "legacy" the uncached one); they are kept so
    # BENCH_results.json entries stay comparable across revisions.
    metrics = {
        "baseline_nodes": baseline_nodes,
        "legacy_node_intervals_per_s": round(uncached_rate, 1),
        "batched_node_intervals_per_s": round(matched_rate, 1),
        "speedup": round(speedup, 2),
        "divergence": divergence,
        "top_roster_nodes": top_size,
        "top_roster_node_intervals_per_s": round(top_rate, 1),
    }
    for size, rate, _wall in curve:
        metrics["roster_{}_node_intervals_per_s".format(size)] = round(rate, 1)
    record_bench("fleet_scale", total_wall, metrics)

    failures = []
    if speedup < args.min_speedup:
        failures.append(
            "cached-pricer pipeline is only {:.2f}x the uncached loop "
            "(gate: {:.1f}x)".format(speedup, args.min_speedup)
        )
    if divergence:
        failures.append(
            "{} decision fields diverged between cached and uncached "
            "runs".format(divergence)
        )
    if top_rate <= uncached_rate:
        failures.append(
            "{}-node cached rate {:.0f}/s does not beat the {}-node "
            "uncached rate {:.0f}/s".format(
                top_size, top_rate, baseline_nodes, uncached_rate
            )
        )
    if failures:
        for failure in failures:
            print("FAIL: " + failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
