"""``fleet``: the synchronous cluster control loop, one round per call.

32 nodes with the two SKUs interleaved and the ``bench_fleet_scale.py``
fault mix run under :class:`~repro.fleet.cluster_cap.ClusterPowerManager`
(``harden=True``, ``waterfill`` allocation) with a
:class:`~repro.obs.ledger.PredictionLedger` and an in-memory event log.
The benchmark drives ``run(1, resume=True)`` once per round, so each
round -- step, filter, predict, allocate, every node's decide -- is one
timed call.

This is the only workload with fleet stepping on the clock and no
transport: it is the synchronous twin of the shard's control logic.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

from perfbench import probes
from perfbench.breakdown import layer_metrics
from perfbench.common import (
    WorkloadResult, make_registry, peak_rss_mb, repeat_setup, reset_peak_rss, rss_detail,
    traced_segments,
)
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import Tracer

__all__ = ["run"]

NODES = 32
#: Cluster budget per node, watts (as in ``bench_fleet_scale.py``).
CAP_PER_NODE_W = 52.0
#: Rounds per second the run is sized for (about ``--seconds`` today,
#: with a calibration slice after each round).
NOMINAL_ROUNDS_PER_S = 16.0


def _fault_specs():
    """~5% telemetry faults on a third of the roster plus one dead stream."""
    from repro.faults.injection import FaultSpec

    return [
        FaultSpec(
            drop_rate=0.05,
            spike_rate=0.05,
            stuck_rate=0.03,
            counter_wrap_rate=0.04,
            stale_rate=0.05,
        ),
        None,
        FaultSpec(dropout_after_interval=12),
    ]


def _build(registry, seed: int):
    from repro.fleet.cluster_cap import ClusterPowerManager
    from repro.fleet.simulator import make_fleet
    from repro.obs.events import EventLog
    from repro.obs.ledger import PredictionLedger
    from repro.serve.service import SKU_SPECS

    skus = [SKU_SPECS[k] for k in sorted(SKU_SPECS)]
    fleet = make_fleet(
        [skus[i % len(skus)] for i in range(NODES)],
        registry,
        base_seed=seed,
        fault_specs=_fault_specs(),
    )
    events = EventLog()
    return ClusterPowerManager(
        fleet,
        cap_schedule=CAP_PER_NODE_W * NODES,
        policy="waterfill",
        harden=True,
        events=events,
        ledger=PredictionLedger(events=events),
    )


def _decisions(manager) -> List[List[int]]:
    return [[vf.index for vf in node.platform.cu_vfs] for node in manager.fleet.nodes]


def _drive(manager, rounds: int, speed: HostSpeed):
    """One ``run`` call per round; (round (start, seconds), records, decisions).

    A calibration slice follows every round, off the clock.
    """
    spans, records, decisions = [], [], []
    for r in range(rounds):
        started = time.perf_counter()
        record = manager.run(1, resume=r > 0)
        spans.append((started, time.perf_counter() - started))
        records.append(record)
        decisions.append(_decisions(manager))
        speed.sample()
    return spans, records, decisions


def _reference(registry, seed: int, rounds: int):
    """The same fleet under a single ``run(rounds)`` call.

    Every round sets every CU of every node, so the recorded
    ``set_cu_vf`` calls split into one decision table per round (after
    the first table: the start-at-fastest reset).
    """
    manager = _build(registry, seed)
    calls: List[int] = []
    for node in manager.fleet.nodes:
        platform = node.platform

        def record(cu, vf, _set=platform.set_cu_vf):
            calls.append(vf.index)
            return _set(cu, vf)

        platform.set_cu_vf = record
    record = manager.run(rounds)
    for node in manager.fleet.nodes:
        del node.platform.set_cu_vf
    decisions, pos = [], 0
    while pos < len(calls):
        table = []
        for node in manager.fleet.nodes:
            table.append(calls[pos: pos + node.spec.num_cus])
            pos += node.spec.num_cus
        decisions.append(table)
    return record, decisions[1:]


def _power_err_pct(manager) -> tuple:
    rows = manager.ledger.events.of_type("prediction")
    errors = [abs(r["predicted_power"] - r["measured_power"]) / r["measured_power"] for r in rows]
    return 100.0 * sum(errors) / len(errors), len(errors)


def run(seed: int, seconds: float, trace: bool, root: str) -> WorkloadResult:
    from repro.serve.service import SKU_SPECS

    result = WorkloadResult()
    rounds = max(20, round(seconds * NOMINAL_ROUNDS_PER_S))
    train_s: List[float] = []

    def setup():
        started = time.perf_counter()
        registry = make_registry()
        for sku in sorted(SKU_SPECS):
            registry.get(SKU_SPECS[sku])
        train_s.append(time.perf_counter() - started)
        return registry, _build(registry, seed)

    speed = HostSpeed()
    setup_s, setup_all, (registry, manager) = repeat_setup(setup, speed)
    gc.collect()  # earlier set-ups' garbage is not the rounds' cost
    rss_reset = reset_peak_rss()
    spans, records, decisions = _drive(manager, rounds, speed)
    rss_mb = peak_rss_mb()
    raw_s = sum(seconds for _started, seconds in spans)
    times = [speed.scale(seconds, started + seconds / 2.0) for started, seconds in spans]
    wall_s = sum(times)

    # Output check (outside the clock): a single run(rounds) on an
    # identical fleet yields the same shares and VF decisions.
    reference, ref_decisions = _reference(registry, seed, rounds)
    shares = [row for record in records for row in record.shares]
    result.check(
        "run(1, resume=True) x {} == run({}) shares and VF decisions".format(rounds, rounds),
        shares == reference.shares and decisions == ref_decisions,
    )
    violations = sum(
        1 for record in records
        if sum(record.node_true_powers[0]) > record.caps[0]
    )
    err_pct, err_rows = _power_err_pct(manager)

    m = result.metrics
    m.add("setup_s", setup_s, "s", "median of {} set-ups {}".format(
        len(setup_all), ["{:.3f}".format(t) for t in setup_all]))
    m.add(
        "intervals_per_s", NODES * rounds / wall_s, "node-intervals/s",
        "{} nodes x {} rounds / {:.3f} s of rounds at reference speed ({:.3f} s measured)".format(
            NODES, rounds, wall_s, raw_s),
    )
    round_ms = [t * 1e3 for t in times]
    m.add_timing(
        "latency_p50_ms", round_ms, "ms", tail_name="latency_tail_ms", fixed_tail=90.0,
        aliases=("round_p50_ms", "round_p90_ms"),
    )
    m.add("peak_rss_mb", rss_mb, "MB", rss_detail(rss_reset, "rounds"))
    m.add(
        "power_err_pct", err_pct, "%",
        "mean |one-step-ahead predicted - measured| / measured over {} ledger rows".format(err_rows),
    )
    m.add_ratio("failed_frac", 0, NODES * rounds)
    m.add_ratio("cap_violation_frac", violations, rounds)
    result.attempted = NODES * rounds
    result.failed = 0
    result.notes.append(speed.describe())
    result.notes.append(
        "fleet: {} nodes (2 SKUs interleaved, fault mix), {} rounds, waterfill, harden=True; "
        "closed loop, one synchronous caller".format(NODES, rounds)
    )

    if trace:
        # Rounds alternate untraced / traced on a fresh fleet.
        tracer = Tracer()
        traced_manager = _build(registry, seed)
        done = []

        def one_round():
            traced_manager.run(1, resume=bool(done))
            done.append(1)

        windows, overhead, traced_rounds = traced_segments(
            tracer, probes.install_fleet, one_round, rounds
        )
        result.layers = layer_metrics(
            [{"role": "main", "spans": tracer.spans, "counts": dict(tracer.counts)}],
            decided=NODES * traced_rounds,
            lanes={"main": windows},
            extras={
                "registry.train_s": statistics.median(train_s),
                "cluster.cap_violation_frac": violations / rounds,
                "trace_overhead_pct": overhead,
            },
        )
    return result
