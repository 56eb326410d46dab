"""Synchronized multi-node simulation with batched prediction.

:class:`FleetSimulator` owns N :class:`~repro.hardware.platform.Platform`
instances -- potentially of different chip SKUs -- and steps them through
the same 200 ms decision intervals a single-chip DVFS daemon uses.  Each
interval it can price **every VF state of every node** without switching
any of them, which is the PPEP primitive a cluster power manager needs.

The prediction hot path is batched: nodes sharing a trained model are
stacked into one ``(nodes x cores, features)`` problem and priced by
:class:`repro.core.batch.BatchedVFPredictor` in a handful of NumPy
operations.  Heterogeneous fleets batch per model group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.ppep import PPEP, stable_seed
from repro.faults.injection import FaultInjector, FaultSpec
from repro.fleet.engine import FleetEngine
from repro.fleet.registry import ModelRegistry
from repro.hardware.microarch import ChipSpec
from repro.hardware.platform import CoreAssignment, IntervalSample, Platform
from repro.obs.metrics import get_registry
from repro.workloads.suites import spec_program

__all__ = ["FleetNode", "FleetPrediction", "FleetSimulator", "make_fleet"]


class FleetNode:
    """One managed machine: a platform plus its (shared) trained model."""

    def __init__(self, name: str, platform: Platform, ppep: PPEP) -> None:
        if platform.spec.name != ppep.spec.name:
            raise ValueError(
                "platform spec {!r} does not match model spec {!r}".format(
                    platform.spec.name, ppep.spec.name
                )
            )
        self.name = name
        self.platform = platform
        self.ppep = ppep

    @property
    def spec(self) -> ChipSpec:
        return self.platform.spec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "FleetNode({!r}, {})".format(self.name, self.spec.name)


@dataclass(frozen=True)
class FleetPrediction:
    """All-VF predictions for every node of one synchronized interval.

    Per-node arrays are ragged across SKUs (a five-state FX node has
    five columns, a four-state Phenom II node four), so they are stored
    as per-node vectors ordered fastest VF first.
    """

    names: List[str]
    #: Per node: 1-based VF indices, fastest first.
    vf_indices: List[np.ndarray]
    #: Per node: predicted chip power per VF state, watts.
    chip_power: List[np.ndarray]
    #: Per node: predicted instruction throughput per VF state, inst/s.
    instructions_per_second: List[np.ndarray]

    @property
    def num_nodes(self) -> int:
        return len(self.names)

    @property
    def demand(self) -> np.ndarray:
        """Per-node predicted power at each node's fastest VF state."""
        return np.array([p[0] for p in self.chip_power])

    @property
    def floor(self) -> np.ndarray:
        """Per-node predicted power at each node's slowest VF state."""
        return np.array([p[-1] for p in self.chip_power])


class FleetSimulator:
    """Steps many platforms in lockstep and prices them batched.

    Nodes are grouped by their trained model: every node sharing a
    :class:`PPEP` instance (the :class:`~repro.fleet.registry.ModelRegistry`
    guarantees one per SKU) is priced in one batched call.
    """

    def __init__(self, nodes: Sequence[FleetNode]) -> None:
        if not nodes:
            raise ValueError("a fleet needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        # All stepping invariants are checked once here, at
        # construction; step() itself touches no derived per-call state.
        intervals = {node.platform.interval_s for node in nodes}
        if len(intervals) > 1:
            raise ValueError(
                "fleet nodes disagree on the decision interval ({}); "
                "synchronized stepping needs one shared interval".format(
                    ", ".join("{} s".format(i) for i in sorted(intervals))
                )
            )
        self.interval_s = intervals.pop()
        self.nodes: List[FleetNode] = list(nodes)
        groups: Dict[int, List[int]] = {}
        for i, node in enumerate(self.nodes):
            groups.setdefault(id(node.ppep), []).append(i)
        #: (model, node indices) per batch group.
        self._groups = [
            (self.nodes[idx[0]].ppep, idx) for idx in groups.values()
        ]
        self._engine = FleetEngine(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def num_model_groups(self) -> int:
        return len(self._groups)

    # -- simulation ---------------------------------------------------------

    def step(self) -> List[IntervalSample]:
        """Advance every node one synchronized 200 ms interval.

        Each node advances through its own ``platform.step()``, which
        batches the node's steady sub-slices in its
        :class:`~repro.hardware.engine.VectorEngine`.
        """
        registry = get_registry()
        if registry.enabled:
            registry.counter("obs.fleet.steps").inc()
        return self._engine.step()

    def run(self, n_intervals: int) -> List[List[IntervalSample]]:
        """Free-running fleet (no controller): samples per interval."""
        if n_intervals <= 0:
            raise ValueError("n_intervals must be positive")
        return [self.step() for _ in range(n_intervals)]

    # -- batched prediction (the hot path) ----------------------------------

    def predict(self, samples: Sequence[IntervalSample]) -> FleetPrediction:
        """Price all VF states of all nodes from one interval's samples.

        ``samples`` must align with ``self.nodes`` (one sample per node,
        as returned by :meth:`step`).
        """
        self._check_alignment(samples)
        registry = get_registry()
        registry.counter("obs.fleet.predictions").inc()
        powers: List[Optional[np.ndarray]] = [None] * len(self.nodes)
        rates: List[Optional[np.ndarray]] = [None] * len(self.nodes)
        indices: List[Optional[np.ndarray]] = [None] * len(self.nodes)
        with registry.timer("obs.fleet.predict_seconds"):
            for ppep, node_ids in self._groups:
                batch = ppep.batched_predictor().predict_samples(
                    [samples[i] for i in node_ids]
                )
                chip_power = batch.chip_power
                for row, i in enumerate(node_ids):
                    powers[i] = chip_power[row]
                    rates[i] = batch.instructions_per_second[row]
                    indices[i] = batch.vf_indices
        return FleetPrediction(
            names=[node.name for node in self.nodes],
            vf_indices=indices,
            chip_power=powers,
            instructions_per_second=rates,
        )

    def _check_alignment(self, samples: Sequence[IntervalSample]) -> None:
        if len(samples) != len(self.nodes):
            raise ValueError(
                "expected {} samples (one per node), got {}".format(
                    len(self.nodes), len(samples)
                )
            )


#: Default workload rotation for synthetic fleets: a spread of memory-,
#: CPU-, and FP-bound SPEC analogs so nodes present diverse demand.
_DEFAULT_PROGRAMS = ("429", "458", "416", "433", "470", "403", "462", "482")


def make_fleet(
    specs: Sequence[ChipSpec],
    registry: ModelRegistry,
    base_seed: int = 20141213,
    power_gating: bool = True,
    programs: Sequence[str] = _DEFAULT_PROGRAMS,
    busy_cus: Optional[Sequence[int]] = None,
    fault_specs: Optional[Sequence[FaultSpec]] = None,
) -> FleetSimulator:
    """Build a ready-to-run fleet: one node per entry of ``specs``.

    Models come from ``registry`` (so duplicated SKUs share one trained
    artifact); each node gets one workload per compute unit, rotated
    through ``programs`` by node index so the fleet's demand is
    heterogeneous even when the SKUs are not.  ``busy_cus`` (per node,
    cycled) loads only that many CUs and leaves the rest idle --
    lightly-loaded nodes are what make demand-aware budget allocation
    beat a uniform split.  ``fault_specs`` (per node, cycled; ``None``
    entries mean a clean node) attaches a deterministic, stable-seeded
    :class:`~repro.faults.injection.FaultInjector` to each node's
    telemetry.
    """
    if not specs:
        raise ValueError("need at least one node spec")
    nodes = []
    for i, spec in enumerate(specs):
        ppep = registry.get(spec)
        injector = None
        if fault_specs:
            fault_spec = fault_specs[i % len(fault_specs)]
            if fault_spec is not None and fault_spec.enabled:
                injector = FaultInjector(
                    fault_spec, seed=stable_seed(base_seed, "fleet-fault", i)
                )
        platform = Platform(
            spec,
            seed=stable_seed(base_seed, "fleet-node", i, spec.name),
            power_gating=power_gating and spec.supports_power_gating,
            initial_temperature=spec.ambient_temperature + 15.0,
            fault_injector=injector,
        )
        n_busy = spec.num_cus
        if busy_cus is not None:
            n_busy = min(max(int(busy_cus[i % len(busy_cus)]), 0), spec.num_cus)
        workloads = [
            spec_program(programs[(i + k) % len(programs)])
            for k in range(n_busy)
        ]
        platform.set_assignment(CoreAssignment.one_per_cu(spec, workloads))
        nodes.append(
            FleetNode("node{:02d}".format(i), platform, ppep)
        )
    return FleetSimulator(nodes)
