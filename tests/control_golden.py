"""Golden control-loop fixtures: the builders and the regeneration entry.

Both cluster controllers wrap the one-step capper with the same guard
policy (bad-streak quarantine, held decisions, floor-only budgets for
quarantined nodes).  Each runs here on the fault-injected mixed-SKU
roster of :mod:`tests.fleet_oracle` (``MIXED_SPECS`` with ``FAULTS``):

- :class:`~repro.fleet.cluster_cap.ClusterPowerManager` closed-loop over
  the whole roster (``harden=True``, ``waterfill``, ledger + event log);
- one :class:`~repro.serve.shard.ShardPipeline` per SKU, fed the same
  roster's open-loop sample stream through one shared event log.

``tests/data/control_golden.json`` holds each controller's full event
stream (one canonical JSON line per event, in emission order) and its
``state_dict()`` at mid-run (with the number of events emitted by
then), plus a fingerprint of the floating-point
inputs the streams rest on (trained models and simulated telemetry).
Regenerate it only for an intended behaviour change::

    PYTHONPATH=src python -m tests.control_golden
"""

import hashlib
import json
import os

import numpy as np

from repro.dvfs.power_capping import square_wave_cap
from repro.fleet.cluster_cap import ClusterPowerManager
from repro.fleet.simulator import make_fleet
from repro.obs.events import EventLog
from repro.obs.ledger import PredictionLedger
from repro.serve.service import SKU_SPECS
from repro.serve.shard import ShardPipeline
from tests.fleet_oracle import FAULTS, MIXED_SPECS

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "control_golden.json")

#: Intervals per run; the mid-run checkpoint is taken after ``MID``.
#: The dropout node goes dark at interval 12 and is quarantined three
#: BAD intervals later, so the checkpoint carries a quarantined node.
INTERVALS = 36
MID = 18

#: Shard name per chip spec name.
SKU_KEYS = {spec.name: sku for sku, spec in SKU_SPECS.items()}

#: Shard budget per node, watts.
SHARD_BUDGET_PER_NODE_W = 62.0


def make_registry():
    """The minimal training configuration of the ``tiny_registry`` fixture."""
    from repro.fleet import ModelRegistry
    from repro.workloads.suites import spec_combinations

    return ModelRegistry(
        combos=spec_combinations()[:3], bench_intervals=4, cool_intervals=20
    )


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError("not JSON serialisable: {!r}".format(value))


def canonical(obj) -> str:
    """The one-line JSON form the goldens compare byte for byte."""
    return json.dumps(obj, sort_keys=True, default=_plain)


def fingerprint(registry) -> str:
    """Hash of the numeric inputs the golden streams rest on.

    Covers the trained models (through their all-VF prices) and the
    simulated telemetry of the roster, but no control decision: a
    mismatch means this platform's floating point differs from the one
    that wrote the fixture, not that the control code changed.
    """
    fleet = make_fleet(MIXED_SPECS, registry, fault_specs=FAULTS)
    digest = hashlib.sha256()
    for _ in range(4):
        samples = fleet.step()
        prediction = fleet.predict(samples)
        for sample, power in zip(samples, prediction.chip_power):
            digest.update(
                canonical(
                    [
                        sample.measured_power,
                        list(sample.power_samples),
                        [vec.as_list() for vec in sample.core_events],
                        [float(p) for p in power],
                    ]
                ).encode()
            )
    return digest.hexdigest()


def fleet_manager(registry):
    """The golden fleet controller, freshly built on a fresh fleet."""
    fleet = make_fleet(MIXED_SPECS, registry, fault_specs=FAULTS)
    events = EventLog()
    return ClusterPowerManager(
        fleet,
        cap_schedule=square_wave_cap(420.0, 300.0, 10),
        policy="waterfill",
        harden=True,
        events=events,
        ledger=PredictionLedger(events=events),
    )


def shard_pipelines(registry, names, specs, events):
    """One golden shard per SKU of the roster, sharing ``events``."""
    pipelines = {}
    for spec in specs:
        if spec.name in pipelines:
            continue
        roster = [n for n, s in zip(names, specs) if s.name == spec.name]
        pipelines[spec.name] = ShardPipeline(
            sku=SKU_KEYS[spec.name],
            spec=spec,
            ppep=registry.get(spec),
            node_names=roster,
            budget_w=SHARD_BUDGET_PER_NODE_W * len(roster),
            policy="waterfill",
            events=events,
        )
    return pipelines


def shard_stream(registry):
    """The roster's open-loop telemetry: (node names, specs, intervals)."""
    fleet = make_fleet(MIXED_SPECS, registry, fault_specs=FAULTS)
    names = [node.name for node in fleet.nodes]
    specs = [node.spec for node in fleet.nodes]
    return names, specs, [fleet.step() for _ in range(INTERVALS)]


def feed(pipelines, names, specs, intervals):
    """Deliver intervals node by node; the VF decisions per interval."""
    decisions = []
    for samples in intervals:
        decisions.append(
            [
                pipelines[spec.name].process(name, sample)["decision"]
                for name, spec, sample in zip(names, specs, samples)
            ]
        )
    return decisions


def generate(registry) -> dict:
    manager = fleet_manager(registry)
    manager.run(MID)
    fleet_state = manager.state_dict()
    fleet_at_mid = len(manager.events.records)
    manager.run(INTERVALS - MID, resume=True)

    names, specs, intervals = shard_stream(registry)
    events = EventLog()
    pipelines = shard_pipelines(registry, names, specs, events)
    feed(pipelines, names, specs, intervals[:MID])
    shard_state = {p.sku: p.state_dict() for p in pipelines.values()}
    shard_at_mid = len(events.records)
    feed(pipelines, names, specs, intervals[MID:])

    return {
        "fingerprint": fingerprint(registry),
        "intervals": INTERVALS,
        "mid": MID,
        "fleet": {
            "events": [canonical(e) for e in manager.events.records],
            "events_at_mid": fleet_at_mid,
            "state": json.loads(canonical(fleet_state)),
        },
        "shard": {
            "events": [canonical(e) for e in events.records],
            "events_at_mid": shard_at_mid,
            "state": json.loads(canonical(shard_state)),
        },
    }


if __name__ == "__main__":
    golden = generate(make_registry())
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for kind in ("fleet", "shard"):
        types = {}
        for line in golden[kind]["events"]:
            t = json.loads(line)["type"]
            types[t] = types.get(t, 0) + 1
        print(kind, types)
