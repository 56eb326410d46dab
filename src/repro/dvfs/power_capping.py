"""One-step power capping (Section V-B, Figure 7).

Two controllers chase a time-varying power cap:

- :class:`PPEPPowerCapper` -- the paper's contribution: every interval
  it predicts chip power for candidate per-CU VF assignments (PPEP's
  cross-VF prediction, no trial-and-error) and directly picks the
  assignment that maximises predicted performance under the cap.  It
  reaches a new cap within one 200 ms decision interval.
- :class:`IterativePowerCapper` -- the commonly practiced reactive
  baseline: compare measured power against the cap and move one CU one
  VF step per interval.  With four CUs and four steps per CU it needs
  up to ~14 intervals (2.8 s) to span the range, matching the paper.

Both assume per-CU power planes (per-CU DVFS), as the paper does for
this experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Union

import numpy as np

from repro.core.ppep import PPEP
from repro.dvfs.governor import ControlledRun, DVFSController
from repro.hardware.platform import IntervalSample
from repro.hardware.vfstates import VFState, VFTable

__all__ = [
    "PPEPPowerCapper",
    "UniformPowerCapper",
    "IterativePowerCapper",
    "CappingResult",
    "ExternalBudget",
    "evaluate_capping",
    "evaluate_power_series",
    "square_wave_cap",
]

CapSchedule = Callable[[int], float]


class ExternalBudget:
    """A cap "schedule" whose value an outer controller sets at runtime.

    The per-chip cappers read their cap through a ``schedule(step)``
    callable.  Hierarchical managers (see
    :class:`repro.fleet.cluster_cap.ClusterPowerManager`) re-apportion a
    cluster budget every interval; handing each node's capper an
    ``ExternalBudget`` lets the existing one-step
    :class:`PPEPPowerCapper` chase a share it does not own.
    """

    def __init__(self, initial: float = float("inf")) -> None:
        self._value = float(initial)

    def set(self, watts: float) -> None:
        if not watts >= 0:
            raise ValueError(
                "a power budget cannot be negative or NaN, got {}".format(watts)
            )
        self._value = float(watts)

    @property
    def value(self) -> float:
        return self._value

    def __call__(self, _step: int) -> float:
        return self._value

    def state_dict(self) -> dict:
        return {"value": self._value}

    def load_state_dict(self, state: dict) -> None:
        self._value = float(state["value"])


def square_wave_cap(
    high: float, low: float, period_intervals: int
) -> CapSchedule:
    """The Figure 7 cap profile: ``high`` and ``low`` alternating every
    ``period_intervals`` decision intervals (high first)."""
    if period_intervals <= 0:
        raise ValueError("period must be positive")

    def schedule(step: int) -> float:
        return high if (step // period_intervals) % 2 == 0 else low

    return schedule


class PPEPPowerCapper(DVFSController):
    """Proactive one-step capping via PPEP's cross-VF predictions.

    The per-CU search is greedy: start with every CU at the fastest
    state and, while the predicted chip power exceeds the cap, lower
    the CU offering the largest predicted power saving per unit of
    predicted performance loss.  The greedy walk visits at most
    ``num_cus * (num_states - 1)`` candidates -- trivially cheap next to
    a 200 ms interval.
    """

    def __init__(
        self,
        ppep: PPEP,
        cap_schedule: Union[CapSchedule, float],
        margin: float = 0.97,
        bias_gain: float = 0.25,
    ) -> None:
        self.ppep = ppep
        self._schedule = (
            cap_schedule if callable(cap_schedule) else (lambda _s: float(cap_schedule))
        )
        if not 0.0 < margin <= 1.0:
            raise ValueError("margin must lie in (0, 1]")
        if not 0.0 <= bias_gain <= 1.0:
            raise ValueError("bias_gain must lie in [0, 1]")
        self.margin = margin
        #: EWMA gain of the measured/predicted bias corrector.  PPEP's
        #: per-workload prediction bias is systematic, so one interval
        #: of power-sensor feedback removes most of it -- exactly the
        #: correction a firmware implementation would apply.
        self.bias_gain = bias_gain
        self._step = 0
        self._bias = 1.0
        self._last_predicted = None

    def reset(self) -> None:
        self._step = 0
        self._bias = 1.0
        self._last_predicted = None

    def state_dict(self) -> dict:
        """The controller's closed-loop state: schedule step, EWMA bias,
        and the previous prediction the bias corrector scores against.
        (The schedule itself is configuration, not state -- an
        :class:`ExternalBudget` checkpoints separately.)"""
        return {
            "step": self._step,
            "bias": self._bias,
            "last_predicted": self._last_predicted,
        }

    def load_state_dict(self, state: dict) -> None:
        self._step = int(state["step"])
        self._bias = float(state["bias"])
        self._last_predicted = (
            None
            if state["last_predicted"] is None
            else float(state["last_predicted"])
        )

    def current_cap(self) -> float:
        return self._schedule(self._step)

    def decide(self, sample: IntervalSample) -> Sequence[VFState]:
        if self._last_predicted is not None and self._last_predicted > 1.0:
            observed = sample.measured_power / self._last_predicted
            self._bias += self.bias_gain * (observed - self._bias)
        cap = self._schedule(self._step) * self.margin / max(self._bias, 0.5)
        self._step += 1
        spec = self.ppep.spec
        table = spec.vf_table
        states = self.ppep.core_states(sample)
        # The greedy walk below prices dozens of assignments from the
        # same observation; the pricer caches the per-(core, VF) terms
        # so each candidate is a cheap sum (bit-identical to
        # predict_mixed, which dominates the fleet hot loop otherwise).
        price = self.ppep.mixed_pricer(
            states, sample.temperature, sample.power_gating
        ).price

        assignment: List[VFState] = [table.fastest] * spec.num_cus
        power, perf = price(assignment)
        while power > cap:
            best_cu = None
            best_score = None
            best_next = None
            for cu in range(spec.num_cus):
                current = assignment[cu]
                lower = table.step_down(current)
                if lower.index == current.index:
                    continue
                trial = list(assignment)
                trial[cu] = lower
                trial_power, trial_perf = price(trial)
                saved = power - trial_power
                lost = max(perf - trial_perf, 1.0)
                score = saved / lost
                if best_score is None or score > best_score:
                    best_cu, best_score = cu, score
                    best_next = (trial, trial_power, trial_perf)
            if best_cu is None:
                break  # every CU is already at the floor
            assignment, power, perf = best_next

        # Refinement: the last greedy step can overshoot well below the
        # cap; climb individual CUs back up while the prediction still
        # fits, so the budget is actually used (performance under cap is
        # the objective, not distance below it).
        improved = True
        while improved:
            improved = False
            best_gain = None
            best_state = None
            for cu in range(spec.num_cus):
                current = assignment[cu]
                higher = table.step_up(current)
                if higher.index == current.index:
                    continue
                trial = list(assignment)
                trial[cu] = higher
                trial_power, trial_perf = price(trial)
                if trial_power <= cap:
                    gain = trial_perf - perf
                    if best_gain is None or gain > best_gain:
                        best_gain = gain
                        best_state = (trial, trial_power, trial_perf)
            if best_state is not None:
                assignment, power, perf = best_state
                improved = True
        self._last_predicted = power
        return assignment


class UniformPowerCapper(DVFSController):
    """One-step capping restricted to chip-uniform VF states.

    Today's hardware mostly offers per-CU *frequency* but only global
    *voltage* scaling (the paper assumes per-CU power planes for its
    Figure 7 study).  This variant models the conservative end: one VF
    state for the whole chip, still chosen proactively from PPEP's
    predictions.  Comparing it against :class:`PPEPPowerCapper` shows
    what per-CU planes buy: finer power granularity under the cap.
    """

    def __init__(
        self,
        ppep: PPEP,
        cap_schedule: Union[CapSchedule, float],
        margin: float = 0.97,
    ) -> None:
        self.ppep = ppep
        self._schedule = (
            cap_schedule if callable(cap_schedule) else (lambda _s: float(cap_schedule))
        )
        if not 0.0 < margin <= 1.0:
            raise ValueError("margin must lie in (0, 1]")
        self.margin = margin
        self._step = 0

    def reset(self) -> None:
        self._step = 0

    def decide(self, sample: IntervalSample) -> Sequence[VFState]:
        from repro.core.energy import EnergyPredictor

        cap = self._schedule(self._step) * self.margin
        self._step += 1
        snapshot = self.ppep.analyze(sample)
        best = EnergyPredictor.best_performance_under_cap(
            snapshot.all_predictions(), cap
        )
        chosen = best.vf if best is not None else self.ppep.spec.vf_table.slowest
        return [chosen] * self.ppep.spec.num_cus


class IterativePowerCapper(DVFSController):
    """The reactive baseline: one CU moves one VF step per interval.

    Over the cap: lower the fastest CU.  Under ``raise_threshold`` of
    the cap: raise the slowest CU (and observe what happens next
    interval).  This is the try-observe-retry loop the paper describes
    as commonly practiced in commercial CPUs.
    """

    def __init__(
        self,
        vf_table: VFTable,
        num_cus: int,
        cap_schedule: Union[CapSchedule, float],
        raise_threshold: float = 0.92,
    ) -> None:
        self.table = vf_table
        self.num_cus = num_cus
        self._schedule = (
            cap_schedule if callable(cap_schedule) else (lambda _s: float(cap_schedule))
        )
        self.raise_threshold = raise_threshold
        self._step = 0
        self._assignment: List[VFState] = [vf_table.fastest] * num_cus

    def reset(self) -> None:
        self._step = 0
        self._assignment = [self.table.fastest] * self.num_cus

    def decide(self, sample: IntervalSample) -> Sequence[VFState]:
        cap = self._schedule(self._step)
        self._step += 1
        measured = sample.measured_power
        assignment = list(self._assignment)
        if measured > cap:
            # Lower the fastest CU one step.
            cu = max(range(self.num_cus), key=lambda c: assignment[c].index)
            assignment[cu] = self.table.step_down(assignment[cu])
        elif measured < cap * self.raise_threshold:
            # Power headroom: raise the slowest CU one step.
            cu = min(range(self.num_cus), key=lambda c: assignment[c].index)
            assignment[cu] = self.table.step_up(assignment[cu])
        self._assignment = assignment
        return assignment


@dataclass(frozen=True)
class CappingResult:
    """Figure 7 metrics for one controller run."""

    #: Intervals needed to get back under the cap after each cap *drop*.
    settle_intervals: List[int]
    #: Fraction of intervals whose measured power exceeded the cap.
    violation_rate: float
    #: Mean of ``1 - |P - cap| / cap`` -- how tightly the controller
    #: tracks the budget (the paper's "adheres with 94% accuracy").
    adherence: float
    #: Total instructions retired over the run (performance side).
    total_instructions: float

    @property
    def worst_settle(self) -> int:
        return max(self.settle_intervals) if self.settle_intervals else 0

    @property
    def mean_settle(self) -> float:
        if not self.settle_intervals:
            return 0.0
        return sum(self.settle_intervals) / len(self.settle_intervals)


def evaluate_capping(
    run: ControlledRun, cap_schedule: CapSchedule
) -> CappingResult:
    """Score a closed-loop run against its cap schedule."""
    caps = [cap_schedule(i) for i in range(len(run.samples))]
    return evaluate_power_series(
        run.measured_powers, caps, run.total_instructions()
    )


def evaluate_power_series(
    powers: Sequence[float],
    caps: Sequence[float],
    total_instructions: float,
) -> CappingResult:
    """Score any per-interval power series against its cap series.

    The Figure 7 methodology detached from :class:`ControlledRun`, so
    fleet-level totals (sum of node powers vs. a cluster budget) are
    scored with exactly the same settle/violation/adherence metrics as
    a single chip.
    """
    if len(powers) != len(caps):
        raise ValueError("powers and caps must align")
    if not powers:
        raise ValueError("cannot score an empty run")

    settle: List[int] = []
    i = 1
    while i < len(caps):
        if caps[i] < caps[i - 1]:
            # A cap drop at interval i: count intervals until back under.
            waited = 0
            j = i
            while j < len(caps) and powers[j] > caps[j]:
                waited += 1
                j += 1
            settle.append(waited)
        i += 1

    violations = sum(1 for p, c in zip(powers, caps) if p > c)
    adherence = float(
        np.mean([1.0 - abs(p - c) / c for p, c in zip(powers, caps)])
    )
    return CappingResult(
        settle_intervals=settle,
        violation_rate=violations / len(powers),
        adherence=adherence,
        total_instructions=total_instructions,
    )
