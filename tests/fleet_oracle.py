"""Per-node reference pieces for the fleet kernel's bit-identity checks.

The cluster controllers step the fleet with a batched kernel
(:class:`~repro.fleet.engine.FleetEngine`) and price capper trials
with a cached pricer (:class:`~repro.core.ppep.MixedPricer`).  Each is
pinned bit-identical to a plain per-node reference.  This module holds
those references and swaps them into an already-built controller, so
the controller's own loop runs unchanged on top of them:

- stepping: one ``platform.step()`` per node;
- pricing: every candidate assignment priced from scratch by
  :meth:`~repro.core.ppep.PPEP.predict_mixed`.

Telemetry filtering and ledger recording have a single per-node kernel
each, so there is nothing to swap for them.
``tests/test_fleet_batch.py`` and ``benchmarks/bench_fleet_scale.py``
both build their reference runs with :func:`per_node`.
"""

from repro.faults.injection import FaultSpec
from repro.hardware.microarch import FX8320_SPEC, PHENOM_II_SPEC

__all__ = [
    "FAULTS",
    "MIXED_SPECS",
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


def per_node(manager):
    """Swap the batched stepping and cached pricing of a ClusterPowerManager
    for their references.  Returns the manager."""
    fleet = manager.fleet
    fleet._engine = PerNodeStepper(fleet.nodes)
    _uncache(manager._cappers)
    return manager


def per_node_shard(pipeline):
    """Uncached capper pricing for every node of a ShardPipeline."""
    _uncache(pipeline._cappers.values())
    return pipeline
