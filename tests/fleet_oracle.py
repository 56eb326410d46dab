"""Per-node reference pieces for the fleet kernel's bit-identity checks.

The cluster controllers run on batched kernels: fleet stepping
(:class:`~repro.fleet.engine.FleetEngine`), telemetry filtering
(:class:`~repro.faults.filtering.BatchTelemetryFilter`), columnar ledger
accounting (:meth:`~repro.obs.ledger.PredictionLedger.record_many`) and
cached capper pricing (:class:`~repro.core.ppep.MixedPricer`).  Each one
is pinned bit-identical to a plain per-node reference.  This module
holds those references and swaps them into an already-built controller,
so the controller's own loop runs unchanged on top of them:

- stepping: one ``platform.step()`` per node;
- filtering: one :class:`~repro.faults.filtering.TelemetryFilter` per
  node behind the batch filter's ``ingest_many`` / ``node_state_dicts``
  interface;
- ledger: one ``record`` call per row;
- pricing: every candidate assignment priced from scratch by
  :meth:`~repro.core.ppep.PPEP.predict_mixed`.

``tests/test_fleet_batch.py`` and ``benchmarks/bench_fleet_scale.py``
both build their reference runs with :func:`per_node`.
"""

from repro.faults.filtering import TelemetryFilter
from repro.faults.injection import FaultSpec
from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC

__all__ = [
    "FAULTS",
    "MIXED_SPECS",
    "PerNodeFilters",
    "PerNodeStepper",
    "UncachedModel",
    "per_node",
    "per_node_shard",
]

MIXED_SPECS = [
    FX8320_SPEC,
    PHENOM_II_SPEC,
    FX8320_SPEC,
    PHENOM_II_SPEC,
    FX8320_SPEC,
    FX8320_SPEC,
]

#: ~5% fault rates on some nodes, one clean node, one dropout node --
#: exercises stale/spike/stuck repair, BAD streaks, and quarantine.
FAULTS = [
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


class PerNodeStepper:
    """Fleet stepping as one ``platform.step()`` per node."""

    def __init__(self, nodes) -> None:
        self.nodes = list(nodes)

    def step(self):
        return [node.platform.step() for node in self.nodes]


class PerNodeFilters:
    """One TelemetryFilter per node, shaped like a BatchTelemetryFilter."""

    def __init__(self, specs, config=None) -> None:
        self.filters = [TelemetryFilter(spec, config) for spec in specs]

    def ingest_many(self, samples):
        return [f.ingest(s) for f, s in zip(self.filters, samples)]

    def reset(self) -> None:
        for f in self.filters:
            f.reset()

    def node_state_dicts(self):
        return [f.state_dict() for f in self.filters]

    def load_node_state_dicts(self, states) -> None:
        for f, state in zip(self.filters, states):
            f.load_state_dict(state)


class _UncachedPricer:
    def __init__(self, ppep, states, temperature, power_gating) -> None:
        self._ppep = ppep
        self._args = (states, temperature)
        self._power_gating = power_gating

    def price(self, targets):
        return self._ppep.predict_mixed(*self._args, targets, self._power_gating)


class UncachedModel:
    """A PPEP whose ``mixed_pricer`` re-prices every trial from scratch."""

    def __init__(self, ppep) -> None:
        self._ppep = ppep

    def __getattr__(self, name):
        return getattr(self._ppep, name)

    def mixed_pricer(self, states, temperature, power_gating):
        return _UncachedPricer(self._ppep, states, temperature, power_gating)


def _uncache(cappers) -> None:
    for capper in cappers:
        capper.ppep = UncachedModel(capper.ppep)


def per_node(manager, filter_config=None):
    """Swap every batched kernel of a ClusterPowerManager for its reference.

    ``filter_config`` must match the one the manager was built with.
    Returns the manager.
    """
    fleet = manager.fleet
    fleet._engine = PerNodeStepper(fleet.nodes)
    if manager._filters is not None:
        manager._filters = PerNodeFilters(
            [node.spec for node in fleet.nodes], filter_config
        )
    _uncache(manager._cappers)
    ledger = manager.ledger
    if ledger is not None:
        ledger.record_many = lambda rows: [ledger.record(**row) for row in rows]
    return manager


def per_node_shard(pipeline):
    """Uncached capper pricing for every node of a ShardPipeline."""
    _uncache(pipeline._cappers.values())
    return pipeline
