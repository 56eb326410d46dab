#!/usr/bin/env python
"""Fleet-kernel scale benchmark: nodes*intervals per second.

Runs the full hardened cluster loop (batched fleet stepping, per-node
telemetry filtering and ledger recording, cached-pricer capping) at
several roster sizes and compares against the legacy per-node
pipeline: the same loop with the per-node references of
``tests/fleet_oracle.py`` swapped in (per-node ``Platform.step()`` and
uncached ``predict_mixed`` pricing in every capper trial).  Filtering
and ledger recording have one kernel each, so both modes share them.

Gates (CI runs the small-roster smoke)::

    python benchmarks/bench_fleet_scale.py --sizes 64 --intervals 8

1. batched >= ``--min-speedup`` x the legacy pipeline's
   nodes*intervals/s on the same roster (default 5x);
2. zero decision divergence: shares, VF decisions, verdicts, and
   quarantine health must be bit-identical between the two modes;
3. the largest batched roster must beat the 64-node legacy loop's
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


def _build_manager(registry, n_nodes, batched, seed):
    """The hardened loop on ``n_nodes``; ``batched=False`` is the oracle.

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
    return manager if batched else fleet_oracle.per_node(manager)


def _timed_run(manager, intervals):
    started = time.perf_counter()
    run = manager.run(intervals)
    wall = time.perf_counter() - started
    return run, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[64, 1024, 10000],
        help="batched roster sizes to sweep (default: 64 1024 10000)",
    )
    parser.add_argument(
        "--intervals", type=int, default=4,
        help="decision intervals per roster size (default: 4)",
    )
    parser.add_argument(
        "--baseline-nodes", type=int, default=None,
        help="legacy per-node roster size (default: min(64, smallest "
        "--sizes entry))",
    )
    parser.add_argument(
        "--baseline-intervals", type=int, default=None,
        help="legacy run length (default: --intervals)",
    )
    parser.add_argument(
        "--equivalence-nodes", type=int, default=None,
        help="roster size of the divergence check (default: baseline)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required batched/legacy nodes*intervals/s ratio (default: 5)",
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

    # Legacy per-node pipeline: the pre-kernel baseline.
    legacy_mgr = _build_manager(
        registry, baseline_nodes, batched=False, seed=args.seed
    )
    _run, legacy_wall = _timed_run(legacy_mgr, baseline_intervals)
    legacy_rate = baseline_nodes * baseline_intervals / legacy_wall

    # Batched pipeline, matched roster (the speedup gate) ...
    matched_mgr = _build_manager(
        registry, baseline_nodes, batched=True, seed=args.seed
    )
    _run, matched_wall = _timed_run(matched_mgr, baseline_intervals)
    matched_rate = baseline_nodes * baseline_intervals / matched_wall
    speedup = matched_rate / legacy_rate

    # ... and the scale curve.
    curve = []
    for size in args.sizes:
        mgr = _build_manager(registry, size, batched=True, seed=args.seed)
        _run, wall = _timed_run(mgr, args.intervals)
        curve.append((size, size * args.intervals / wall, wall))

    # Decision-divergence check: bit-identical shares, health verdicts,
    # measured trajectories, and downstream capper/filter state.
    div_a = _build_manager(
        registry, equivalence_nodes, batched=True, seed=args.seed
    )
    div_b = _build_manager(
        registry, equivalence_nodes, batched=False, seed=args.seed
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
        "Fleet-kernel scale: hardened cluster loop, nodes*intervals/s",
        "============================================================",
        "roster mix: {} SKUs interleaved, ~5% fault rates + one dead "
        "stream".format(len(SKU_SPECS)),
        "legacy per-node pipeline: {} nodes x {} intervals -> "
        "{:.0f} node-intervals/s".format(
            baseline_nodes, baseline_intervals, legacy_rate
        ),
        "batched pipeline (same roster): {:.0f} node-intervals/s "
        "({:.1f}x)".format(matched_rate, speedup),
        "scale curve (batched):",
    ]
    for size, rate, wall in curve:
        lines.append(
            "  {:>6d} nodes x {} intervals: {:>8.0f} node-intervals/s "
            "({:.1f}s)".format(size, args.intervals, rate, wall)
        )
    lines += [
        "decision divergence (batched vs per-node, {} nodes): "
        "{}".format(equivalence_nodes, divergence),
        "gate: batched >= {:.0f}x legacy and {}-node batched beats "
        "{}-node legacy absolute rate, with zero divergence".format(
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

    metrics = {
        "baseline_nodes": baseline_nodes,
        "legacy_node_intervals_per_s": round(legacy_rate, 1),
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
            "batched pipeline is only {:.2f}x the per-node loop "
            "(gate: {:.1f}x)".format(speedup, args.min_speedup)
        )
    if divergence:
        failures.append(
            "{} decision fields diverged between batched and per-node "
            "runs".format(divergence)
        )
    if top_rate <= legacy_rate:
        failures.append(
            "{}-node batched rate {:.0f}/s does not beat the {}-node "
            "legacy rate {:.0f}/s".format(
                top_size, top_rate, baseline_nodes, legacy_rate
            )
        )
    if failures:
        for failure in failures:
            print("FAIL: " + failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
