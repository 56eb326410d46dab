"""Hierarchical fleet power capping.

A cluster-level power budget (a rack breaker limit, a demand-response
event) must be met by chips that only know how to cap *themselves*.
:class:`ClusterPowerManager` closes the loop hierarchically, every
200 ms decision interval:

1. the fleet's batched predictor prices every VF state of every node --
   each node's *demand* (predicted power at its fastest state) and
   *floor* (predicted power at its slowest state) cost one NumPy pass;
2. an allocation policy apportions the cluster budget into node shares;
3. each node's existing one-step
   :class:`~repro.dvfs.power_capping.PPEPPowerCapper` chases its share
   through an :class:`~repro.dvfs.power_capping.ExternalBudget`.

Because every layer is proactive (prediction, not trial-and-error), the
fleet total lands under a new cluster cap within one decision interval
-- the Figure 7 one-step property, at rack scale.

Allocation policies:

- ``uniform`` -- the naive baseline: every node gets ``B / N``
  regardless of what it is running;
- ``proportional`` -- shares proportional to predicted demand, so busy
  nodes get budget idle nodes would waste;
- ``waterfill`` -- every node is first granted its floor (it cannot go
  lower anyway), then the remaining budget fills nodes equally, capped
  at each node's demand (classic waterfilling).

:class:`QuarantinePolicy` is the per-node guard around the cappers
(bad-streak quarantine and held decisions); the streaming service's
:class:`~repro.serve.shard.ShardPipeline` uses the same one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.dvfs.power_capping import (
    CappingResult,
    ExternalBudget,
    PPEPPowerCapper,
    evaluate_power_series,
)
from repro.faults.filtering import GOOD, BatchTelemetryFilter, FilterConfig
from repro.fleet.simulator import FleetSimulator

__all__ = [
    "ALLOCATION_POLICIES",
    "ClusterPowerManager",
    "FleetCappingRun",
    "QuarantinePolicy",
    "allocate_budget",
    "check_allocation",
]

ALLOCATION_POLICIES = ("uniform", "proportional", "waterfill")

CapSchedule = Callable[[int], float]


def check_allocation(policy: str, budget: Optional[float] = None) -> None:
    """Raise ``ValueError`` for an unknown policy or a negative or NaN
    budget."""
    if policy not in ALLOCATION_POLICIES:
        raise ValueError(
            "unknown policy {!r}; choose from {}".format(policy, ALLOCATION_POLICIES)
        )
    if budget is not None and not budget >= 0:
        raise ValueError("budget cannot be negative or NaN, got {}".format(budget))


def allocate_budget(
    policy: str,
    budget: float,
    demand: np.ndarray,
    floor: np.ndarray,
    healthy: Optional[Sequence[bool]] = None,
) -> np.ndarray:
    """Split ``budget`` watts across nodes; shares never sum above it.

    ``demand`` and ``floor`` are the per-node predicted powers at the
    fastest and slowest VF states (see
    :class:`~repro.fleet.simulator.FleetPrediction`).  With a
    ``healthy`` mask, every unhealthy node is granted exactly its floor
    (it is pinned to its slowest state, so its draw is its floor no
    matter what it is granted on paper) and the rest of the budget is
    split among the healthy nodes.
    """
    demand = np.asarray(demand, dtype=float)
    floor = np.asarray(floor, dtype=float)
    if demand.shape != floor.shape or demand.ndim != 1 or demand.size == 0:
        raise ValueError("demand and floor must be equal-length vectors")
    check_allocation(policy, budget)
    mask = None if healthy is None else np.asarray(healthy, dtype=bool)
    if mask is None or mask.all():
        return _split(policy, budget, demand, floor)
    shares = np.zeros(demand.size)
    shares[~mask] = floor[~mask]
    if mask.any():
        remaining = max(budget - float(floor[~mask].sum()), 0.0)
        shares[mask] = _split(policy, remaining, demand[mask], floor[mask])
    return shares


def _split(
    policy: str, budget: float, demand: np.ndarray, floor: np.ndarray
) -> np.ndarray:
    n = demand.size
    if policy == "uniform":
        return np.full(n, budget / n)
    if policy == "proportional":
        total = demand.sum()
        if total <= 0:
            return np.full(n, budget / n)
        return budget * demand / total
    return _waterfill(budget, demand, floor)


def _waterfill(
    budget: float, demand: np.ndarray, floor: np.ndarray
) -> np.ndarray:
    """Floors first, then equal fill capped at demand."""
    # An infeasible budget (below the sum of floors) is split
    # proportionally to the floors: every node will pin to its slowest
    # state regardless, and proportional floors degrade gracefully.
    floors_total = floor.sum()
    if budget <= floors_total or floors_total <= 0:
        if floors_total <= 0:
            return np.full(demand.size, budget / demand.size)
        return budget * floor / floors_total
    share = floor.copy()
    ceiling = np.maximum(demand, floor)
    remaining = budget - share.sum()
    unsat = share < ceiling - 1e-9
    while remaining > 1e-9 and unsat.any():
        added = np.zeros_like(share)
        added[unsat] = remaining / unsat.sum()
        new_share = np.minimum(share + added, ceiling)
        granted = (new_share - share).sum()
        share = new_share
        remaining -= granted
        unsat = share < ceiling - 1e-9
        if granted <= 1e-12:
            break
    return share


@dataclass
class FleetCappingRun:
    """Closed-loop trajectory of a cluster-capped fleet."""

    node_names: List[str]
    #: Cluster cap in force per interval, watts.
    caps: List[float] = field(default_factory=list)
    #: Measured per-node power, ``[interval][node]``, watts.
    node_powers: List[List[float]] = field(default_factory=list)
    #: Budget share granted per node, ``[interval][node]``, watts.
    shares: List[List[float]] = field(default_factory=list)
    #: Instructions retired per node per interval.
    node_instructions: List[List[float]] = field(default_factory=list)
    #: Ground-truth per-node power, ``[interval][node]`` -- what the
    #: machines actually drew, immune to telemetry faults.
    node_true_powers: List[List[float]] = field(default_factory=list)
    #: Telemetry quality flag per node per interval (hardened runs).
    node_quality: List[List[str]] = field(default_factory=list)
    #: Health verdict per node per interval (hardened runs).
    node_healthy: List[List[bool]] = field(default_factory=list)

    @property
    def fleet_powers(self) -> List[float]:
        """Total measured fleet power per interval, watts."""
        return [sum(row) for row in self.node_powers]

    @property
    def fleet_true_powers(self) -> List[float]:
        """Total ground-truth fleet power per interval, watts."""
        return [sum(row) for row in self.node_true_powers]

    def total_instructions(self) -> float:
        return float(sum(sum(row) for row in self.node_instructions))

    def evaluate(self) -> CappingResult:
        """Figure 7 metrics of the fleet total against the cluster cap."""
        return evaluate_power_series(
            self.fleet_powers, self.caps, self.total_instructions()
        )

    def evaluate_true(self) -> CappingResult:
        """The same metrics scored on ground-truth power.

        Under injected faults the *reported* fleet total can look
        compliant while the machines actually violate the breaker limit
        (or vice versa); this is the score that matters.
        """
        return evaluate_power_series(
            self.fleet_true_powers, self.caps, self.total_instructions()
        )


class QuarantinePolicy:
    """The guard every cluster controller wraps around its node cappers.

    Shared by :class:`ClusterPowerManager` (a synchronous fleet) and
    :class:`~repro.serve.shard.ShardPipeline` (asynchronously arriving
    nodes), per node ``i`` of a fixed roster:

    - :meth:`observe` scores one interval's telemetry.  A node whose
      telemetry stays non-actionable for ``unhealthy_after`` consecutive
      intervals is unhealthy (quarantined) until one actionable interval
      re-admits it; each transition emits ``quarantine_enter`` /
      ``quarantine_exit`` and is recorded in :attr:`quarantined_since`.
    - :meth:`hold` overrides the capper's decision: an unhealthy node is
      pinned to its slowest VF state on every CU; a non-actionable
      interval keeps the held decision if there is one; otherwise the
      new decision becomes the held one.

    The budget half of the policy -- an unhealthy node is granted only
    its floor -- is :func:`allocate_budget`'s ``healthy`` mask.
    Decisions are opaque per-CU lists (VF states for the fleet, VF
    indices for the shard); ``slowest`` gives each node's pinned
    decision in the caller's form.
    """

    def __init__(
        self,
        names: Sequence[str],
        slowest: Sequence[list],
        unhealthy_after: int,
        events=None,
    ) -> None:
        if unhealthy_after < 1:
            raise ValueError("unhealthy_after must be >= 1")
        self.names = list(names)
        self.slowest = [list(decision) for decision in slowest]
        self.unhealthy_after = int(unhealthy_after)
        self.events = events
        self.reset()

    def reset(self) -> None:
        n = len(self.names)
        #: Consecutive non-actionable intervals per node.
        self.bad_streak: List[int] = [0] * n
        #: Interval each quarantined node entered quarantine, else None.
        self.quarantined_since: List[Optional[int]] = [None] * n
        #: Last decision applied from actionable telemetry, per node.
        self.held: List[Optional[list]] = [None] * n

    def healthy(self, i: int) -> bool:
        """Whether node ``i`` is out of quarantine."""
        return self.bad_streak[i] < self.unhealthy_after

    def observe(self, i: int, actionable: bool, interval: int) -> bool:
        """Score node ``i``'s interval; whether the node is healthy."""
        self.bad_streak[i] = 0 if actionable else self.bad_streak[i] + 1
        healthy = self.healthy(i)
        since = self.quarantined_since[i]
        if not healthy and since is None:
            self.quarantined_since[i] = interval
            if self.events is not None:
                self.events.emit(
                    "quarantine_enter",
                    node=self.names[i],
                    interval=interval,
                    bad_streak=self.bad_streak[i],
                )
        elif healthy and since is not None:
            self.quarantined_since[i] = None
            if self.events is not None:
                self.events.emit(
                    "quarantine_exit",
                    node=self.names[i],
                    interval=interval,
                    quarantined_intervals=interval - since,
                )
        return healthy

    def hold(self, i: int, decision: list, healthy: bool, actionable: bool) -> list:
        """What node ``i`` applies: pinned, held, or ``decision`` itself."""
        if not healthy:
            self.held[i] = None
            return list(self.slowest[i])
        if not actionable:
            held = self.held[i]
            return decision if held is None else list(held)
        self.held[i] = list(decision)
        return decision

    def load(self, bad_streak, quarantined_since, held) -> None:
        """Restore the per-node state (sequences in roster order)."""
        self.bad_streak = [int(s) for s in bad_streak]
        self.quarantined_since = [
            None if since is None else int(since) for since in quarantined_since
        ]
        self.held = [None if h is None else list(h) for h in held]


class ClusterPowerManager:
    """Apportions a cluster budget; nodes run one-step PPEP capping.

    Parameters
    ----------
    fleet:
        The simulator whose nodes to manage.
    cap_schedule:
        Cluster budget in watts per decision step (a callable or a
        constant), e.g. :func:`repro.dvfs.power_capping.square_wave_cap`.
    policy:
        One of :data:`ALLOCATION_POLICIES`.
    margin / bias_gain:
        Forwarded to each node's :class:`PPEPPowerCapper`.
    harden:
        Run every node's telemetry through a
        :class:`~repro.faults.filtering.BatchTelemetryFilter` before
        prediction and allocation.  Nodes whose quality stays bad for
        ``unhealthy_after`` consecutive intervals are declared
        unhealthy (see :class:`QuarantinePolicy`): pinned to their
        slowest VF state, granted only their predicted floor power, with
        the rest of the budget re-allocated to healthy nodes.  A node
        whose telemetry recovers is re-admitted automatically.
    unhealthy_after:
        Consecutive bad intervals before a node is declared unhealthy.
    filter_config:
        Optional :class:`~repro.faults.filtering.FilterConfig` for the
        per-node filters.
    events / ledger:
        Optional observability sinks.  ``events`` (a
        :class:`repro.obs.events.EventLog`) receives ``filter_verdict``,
        ``quarantine_enter``/``quarantine_exit`` and ``cap_reallocation``
        events; ``ledger`` (a
        :class:`repro.obs.ledger.PredictionLedger`) records, for every
        node and interval, the power PPEP predicted one step ahead for
        the VF assignment the manager chose against the power the node
        then measured -- the online Figure 7 accuracy.

    Each node steps through its own ``platform.step()`` and the node
    cappers price trials through a cached mixed-assignment pricer;
    filtering and ledger recording run their per-node kernels once per
    node.
    """

    def __init__(
        self,
        fleet: FleetSimulator,
        cap_schedule: Union[CapSchedule, float],
        policy: str = "proportional",
        margin: float = 0.97,
        bias_gain: float = 0.25,
        harden: bool = False,
        unhealthy_after: int = 3,
        filter_config: FilterConfig = None,
        events=None,
        ledger=None,
    ) -> None:
        check_allocation(policy, None if callable(cap_schedule) else cap_schedule)
        self.fleet = fleet
        self.policy = policy
        self._schedule = (
            cap_schedule if callable(cap_schedule) else (lambda _s: float(cap_schedule))
        )
        self._budgets = [ExternalBudget() for _ in fleet.nodes]
        self._cappers = [
            PPEPPowerCapper(node.ppep, budget, margin=margin, bias_gain=bias_gain)
            for node, budget in zip(fleet.nodes, self._budgets)
        ]
        self.harden = bool(harden)
        self._guard = QuarantinePolicy(
            [node.name for node in fleet.nodes],
            [
                [node.spec.vf_table.slowest] * node.spec.num_cus
                for node in fleet.nodes
            ],
            unhealthy_after,
            events,
        )
        self._filters = (
            BatchTelemetryFilter([node.spec for node in fleet.nodes], filter_config)
            if self.harden
            else None
        )
        self._step = 0
        self.events = events
        self.ledger = ledger
        self._pending = [None] * len(fleet.nodes)
        self._last_alloc = None

    def reset(self) -> None:
        self._step = 0
        for capper in self._cappers:
            capper.reset()
        if self._filters is not None:
            self._filters.reset()
        self._guard.reset()
        self._pending = [None] * len(self.fleet.nodes)
        self._last_alloc = None

    def state_dict(self) -> dict:
        """Everything a restarted manager needs to continue the loop
        bit-identically: quarantine streaks and entry times, held VF
        assignments, the pending one-step-ahead prices, per-node capper
        and budget state, per-node filter state, and the last emitted
        allocation signature (so a restart does not re-emit a duplicate
        ``cap_reallocation`` event)."""
        guard = self._guard
        return {
            "nodes": [node.name for node in self.fleet.nodes],
            "step": self._step,
            "bad_streak": list(guard.bad_streak),
            "held": [
                None if held is None else [vf.index for vf in held]
                for held in guard.held
            ],
            "quarantined_since": list(guard.quarantined_since),
            "pending": [
                None if pending is None else [pending[0], pending[1]]
                for pending in self._pending
            ],
            "last_alloc": (
                None
                if self._last_alloc is None
                else [self._last_alloc[0], list(self._last_alloc[1])]
            ),
            "budgets": [budget.state_dict() for budget in self._budgets],
            "cappers": [capper.state_dict() for capper in self._cappers],
            # One TelemetryFilter-format dict per node, so a checkpoint
            # restores into per-node filters as well.
            "filters": (
                None if self._filters is None else self._filters.node_state_dicts()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        names = [node.name for node in self.fleet.nodes]
        if list(state["nodes"]) != names:
            raise ValueError(
                "checkpoint was taken for nodes {} but this manager "
                "drives {}".format(state["nodes"], names)
            )
        if (state["filters"] is None) != (self._filters is None):
            raise ValueError(
                "checkpoint hardening mode does not match this manager"
            )
        self._step = int(state["step"])
        self._guard.load(
            state["bad_streak"],
            state["quarantined_since"],
            [
                None
                if held is None
                else [node.spec.vf_table.by_index(int(index)) for index in held]
                for node, held in zip(self.fleet.nodes, state["held"])
            ],
        )
        self._pending = [
            None if pending is None else (int(pending[0]), float(pending[1]))
            for pending in state["pending"]
        ]
        self._last_alloc = (
            None
            if state["last_alloc"] is None
            else (
                float(state["last_alloc"][0]),
                tuple(bool(h) for h in state["last_alloc"][1]),
            )
        )
        for budget, budget_state in zip(self._budgets, state["budgets"]):
            budget.load_state_dict(budget_state)
        for capper, capper_state in zip(self._cappers, state["cappers"]):
            capper.load_state_dict(capper_state)
        if self._filters is not None:
            self._filters.load_node_state_dicts(list(state["filters"]))

    def run(
        self,
        n_intervals: int,
        start_fastest: bool = True,
        resume: bool = False,
    ) -> FleetCappingRun:
        """Run the observe/allocate/decide/apply loop.

        As in :func:`repro.dvfs.governor.run_controlled`, the decision
        made from interval *k*'s samples governs interval *k + 1* (one
        interval of actuation latency).

        With ``resume=True`` the manager continues from its current
        state (e.g. one restored via :meth:`load_state_dict`) instead of
        resetting; node VF assignments are left wherever the platforms
        last put them.
        """
        if n_intervals <= 0:
            raise ValueError("n_intervals must be positive")
        if not resume:
            self.reset()
            if start_fastest:
                for node in self.fleet.nodes:
                    node.platform.set_all_vf(node.spec.vf_table.fastest)
        record = FleetCappingRun(
            node_names=[node.name for node in self.fleet.nodes]
        )
        guard = self._guard
        for _ in range(n_intervals):
            samples = self.fleet.step()
            if self.harden:
                filtered = self._filters.ingest_many(list(samples))
                clean = [verdict.sample for verdict in filtered]
                actionable = [verdict.actionable for verdict in filtered]
            else:
                filtered = None
                clean = samples
                actionable = [True] * len(samples)
            self._observe_interval(clean, filtered)
            healthy = [
                guard.observe(i, ok, self._step) for i, ok in enumerate(actionable)
            ]
            prediction = self.fleet.predict(clean)
            cap = self._schedule(self._step)
            shares = allocate_budget(
                self.policy, cap, prediction.demand, prediction.floor, healthy
            )
            self._observe_allocation(cap, healthy)
            for i, (node, budget, capper, share) in enumerate(
                zip(self.fleet.nodes, self._budgets, self._cappers, shares)
            ):
                budget.set(float(share))
                # The inner capper always sees the (cleaned) sample so
                # its schedule step and bias corrector stay in lockstep
                # with the platform, even when its decision is overridden.
                decision = guard.hold(
                    i, list(capper.decide(clean[i])), healthy[i], actionable[i]
                )
                for cu, vf in enumerate(decision):
                    node.platform.set_cu_vf(cu, vf)
                if self.ledger is not None:
                    # A quarantined node's telemetry is not coming back;
                    # pricing its pinned decision would only queue rows
                    # that the staleness guard above discards anyway.
                    self._pending[i] = (
                        self._price_decision(node, clean[i], decision)
                        if healthy[i]
                        else None
                    )
            record.caps.append(cap)
            record.node_powers.append([s.measured_power for s in samples])
            record.shares.append([float(s) for s in shares])
            record.node_instructions.append(
                [s.total_instructions() for s in samples]
            )
            record.node_true_powers.append([s.true_power for s in samples])
            if filtered is not None:
                record.node_quality.append([v.quality for v in filtered])
                record.node_healthy.append(healthy)
            self._step += 1
        return record

    def _observe_interval(self, clean, filtered) -> None:
        """Per-interval observability: verdict events + ledger rows.

        The ledger pairs the power predicted *last* interval for the VF
        assignment the manager applied with the power the node's
        telemetry now reports -- the one-step-ahead accuracy that the
        Figure 7 capping property rests on.  When hardened, that is the
        filter's cleaned power (as
        :class:`~repro.faults.filtering.HardenedPPEP` records it), so
        a spike or dropped reading the filter repaired does not count
        against the prediction.
        """
        if self.events is not None and filtered is not None:
            for node, verdict in zip(self.fleet.nodes, filtered):
                if verdict.quality == GOOD:
                    # GOOD intervals stay silent: their quality rides on
                    # the prediction row, and one event per node per
                    # interval would dominate the stream.
                    continue
                self.events.emit(
                    "filter_verdict",
                    node=node.name,
                    interval=self._step,
                    quality=verdict.quality,
                    issues=list(verdict.issues),
                )
        if self.ledger is not None:
            rows = []
            for i, (node, sample) in enumerate(zip(self.fleet.nodes, clean)):
                pending = self._pending[i]
                if pending is None:
                    continue
                if filtered is not None and not filtered[i].actionable:
                    # A dropped-out or otherwise broken stream delivers
                    # stale readings; scoring last interval's prediction
                    # against them would pin the ledger's error stats to
                    # garbage, so BAD intervals record nothing.
                    continue
                vf_index, predicted = pending
                rows.append(
                    dict(
                        node=node.name,
                        interval=self._step,
                        vf_index=vf_index,
                        predicted_power=predicted,
                        measured_power=sample.measured_power,
                        interval_s=sample.interval_s,
                        quality=(
                            filtered[i].quality if filtered is not None else None
                        ),
                    )
                )
            self.ledger.record_many(rows)

    def _observe_allocation(self, cap, healthy) -> None:
        """A ``cap_reallocation`` event when (budget, healthy set) changes."""
        if self.events is None:
            return
        allocation = (float(cap), tuple(healthy))
        if allocation != self._last_alloc:
            self._last_alloc = allocation
            self.events.emit(
                "cap_reallocation",
                node="cluster",
                interval=self._step,
                budget_w=float(cap),
                healthy_nodes=int(sum(healthy)),
                total_nodes=len(self.fleet.nodes),
            )

    def _price_decision(self, node, sample, decision):
        """(vf_index, predicted watts) for the applied VF assignment."""
        states = node.ppep.core_states(sample)
        power, _rate = node.ppep.predict_mixed(
            states, sample.temperature, decision, sample.power_gating
        )
        return decision[0].index, float(power)
