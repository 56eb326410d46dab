"""Unit tests for the power-capping controllers and metrics."""

import pytest

from repro.dvfs.governor import ControlledRun
from repro.dvfs.power_capping import (
    CappingResult,
    ExternalBudget,
    IterativePowerCapper,
    evaluate_capping,
    evaluate_power_series,
    square_wave_cap,
)
from repro.hardware.microarch import FX8320_SPEC
from repro.hardware.platform import IntervalSample
from repro.hardware.vfstates import FX8320_VF_TABLE


def fake_sample(power: float) -> IntervalSample:
    return IntervalSample(
        index=0,
        time=0.2,
        cu_vfs=[FX8320_VF_TABLE.fastest] * 4,
        nb_vf=FX8320_SPEC.nb_vf,
        power_gating=False,
        power_samples=[power] * 10,
        measured_power=power,
        temperature=320.0,
        core_events=[],
        true_core_events=[],
        instructions=[],
        true_power=power,
    )


class TestSquareWave:
    def test_alternates(self):
        cap = square_wave_cap(90.0, 50.0, 10)
        assert cap(0) == 90.0
        assert cap(9) == 90.0
        assert cap(10) == 50.0
        assert cap(20) == 90.0

    def test_validation(self):
        with pytest.raises(ValueError):
            square_wave_cap(90.0, 50.0, 0)


class TestIterativeCapper:
    def make(self, cap=60.0):
        return IterativePowerCapper(FX8320_VF_TABLE, 4, cap)

    def test_lowers_one_cu_when_over(self):
        capper = self.make(cap=60.0)
        decision = capper.decide(fake_sample(80.0))
        indices = sorted(vf.index for vf in decision)
        assert indices == [4, 5, 5, 5]  # exactly one CU stepped down

    def test_raises_one_cu_when_far_under(self):
        capper = self.make(cap=60.0)
        capper._assignment = [FX8320_VF_TABLE.by_index(2)] * 4
        decision = capper.decide(fake_sample(30.0))
        indices = sorted(vf.index for vf in decision)
        assert indices == [2, 2, 2, 3]

    def test_holds_inside_band(self):
        capper = self.make(cap=60.0)
        capper._assignment = [FX8320_VF_TABLE.by_index(3)] * 4
        decision = capper.decide(fake_sample(58.0))
        assert [vf.index for vf in decision] == [3, 3, 3, 3]

    def test_needs_many_steps_for_big_swing(self):
        # From all-VF5 to all-VF1 takes 16 single-step decisions: the
        # 14x responsiveness gap of Figure 7.
        capper = self.make(cap=0.0)  # unreachable cap: always step down
        steps = 0
        while any(vf.index > 1 for vf in capper._assignment):
            capper.decide(fake_sample(100.0))
            steps += 1
            assert steps < 50
        assert steps == 16

    def test_reset_restores_fastest(self):
        capper = self.make()
        capper.decide(fake_sample(100.0))
        capper.reset()
        assert all(vf.index == 5 for vf in capper._assignment)


class TestEvaluateCapping:
    def run_with_powers(self, powers):
        run = ControlledRun()
        run.samples = [fake_sample(p) for p in powers]
        return run

    def test_settle_counts_intervals_over_cap(self):
        cap = square_wave_cap(90.0, 50.0, 3)
        # Intervals 0-2 capped at 90 (all under); 3-5 capped at 50.
        powers = [80.0, 80.0, 80.0, 80.0, 60.0, 45.0]
        result = evaluate_capping(self.run_with_powers(powers), cap)
        assert result.settle_intervals == [2]
        assert result.worst_settle == 2

    def test_immediate_settle_is_zero(self):
        cap = square_wave_cap(90.0, 50.0, 2)
        powers = [80.0, 80.0, 45.0, 45.0]
        result = evaluate_capping(self.run_with_powers(powers), cap)
        assert result.settle_intervals == [0]

    def test_violation_rate(self):
        result = evaluate_capping(
            self.run_with_powers([100.0, 80.0, 80.0, 80.0]),
            lambda _i: 90.0,
        )
        assert result.violation_rate == pytest.approx(0.25)

    def test_adherence_perfect_tracking(self):
        result = evaluate_capping(
            self.run_with_powers([90.0, 90.0]), lambda _i: 90.0
        )
        assert result.adherence == pytest.approx(1.0)

    def test_mean_settle(self):
        r = CappingResult(
            settle_intervals=[1, 3],
            violation_rate=0.0,
            adherence=1.0,
            total_instructions=0.0,
        )
        assert r.mean_settle == 2.0
        empty = CappingResult([], 0.0, 1.0, 0.0)
        assert empty.mean_settle == 0.0
        assert empty.worst_settle == 0


class TestExternalBudget:
    def test_starts_unbounded(self):
        budget = ExternalBudget()
        assert budget.value == float("inf")
        assert budget(0) == float("inf")

    def test_set_changes_every_step(self):
        budget = ExternalBudget(100.0)
        assert budget(3) == 100.0
        budget.set(42.5)
        assert budget.value == 42.5
        assert budget(0) == budget(99) == 42.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExternalBudget().set(-1.0)

    def test_rejects_nan_keeps_inf(self):
        budget = ExternalBudget(50.0)
        with pytest.raises(ValueError, match="NaN"):
            budget.set(float("nan"))
        assert budget.value == 50.0
        budget.set(float("inf"))
        assert budget.value == float("inf")


class TestEvaluatePowerSeries:
    def test_matches_evaluate_capping(self):
        cap = square_wave_cap(90.0, 50.0, 3)
        powers = [80.0, 80.0, 80.0, 80.0, 60.0, 45.0]
        run = ControlledRun()
        run.samples = [fake_sample(p) for p in powers]
        via_run = evaluate_capping(run, cap)
        direct = evaluate_power_series(
            powers, [cap(i) for i in range(len(powers))],
            run.total_instructions(),
        )
        assert direct == via_run

    def test_validates_alignment(self):
        with pytest.raises(ValueError):
            evaluate_power_series([80.0, 80.0], [90.0], 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            evaluate_power_series([], [], 0.0)


class TestPPEPCapperEdgeCases:
    def _stepped_sample(self, quick_ctx, vf):
        from repro.hardware.platform import CoreAssignment, Platform
        from repro.workloads.suites import spec_program

        platform = Platform(
            quick_ctx.spec, seed=31, initial_temperature=320.0
        )
        platform.set_assignment(
            CoreAssignment.one_per_cu(
                quick_ctx.spec, [spec_program("458")] * 4
            )
        )
        platform.set_all_vf(vf)
        return platform.step()

    def test_unachievable_cap_pins_floor_and_never_raises(self, quick_ctx):
        """A cap below the slowest state's power: every CU lands at the
        floor, and the climb-back refinement must not raise anything."""
        from repro.dvfs.power_capping import PPEPPowerCapper

        capper = PPEPPowerCapper(quick_ctx.full_ppep, 5.0)
        sample = self._stepped_sample(
            quick_ctx, quick_ctx.spec.vf_table.fastest
        )
        slowest = quick_ctx.spec.vf_table.slowest.index
        for _ in range(3):  # bias feedback must not unpin the floor
            decision = capper.decide(sample)
            assert [vf.index for vf in decision] == [slowest] * 4

    def test_generous_cap_reaches_fastest_in_one_step(self, quick_ctx):
        """A cap above max chip power: one decision jumps straight to
        the fastest state even from a crawling start."""
        from repro.dvfs.power_capping import PPEPPowerCapper

        capper = PPEPPowerCapper(quick_ctx.full_ppep, 500.0)
        sample = self._stepped_sample(
            quick_ctx, quick_ctx.spec.vf_table.slowest
        )
        fastest = quick_ctx.spec.vf_table.fastest.index
        decision = capper.decide(sample)
        assert [vf.index for vf in decision] == [fastest] * 4


class TestUniformCapper:
    def test_uniform_decisions(self, quick_ctx):
        from repro.dvfs.power_capping import UniformPowerCapper
        from repro.dvfs.governor import run_controlled
        from repro.hardware.platform import CoreAssignment, Platform
        from repro.workloads.suites import spec_program

        platform = Platform(
            quick_ctx.spec, seed=21, initial_temperature=320.0
        )
        platform.set_assignment(
            CoreAssignment.one_per_cu(
                quick_ctx.spec, [spec_program("458")] * 4
            )
        )
        capper = UniformPowerCapper(quick_ctx.full_ppep, 50.0)
        run = run_controlled(platform, capper, 5,
                             initial_vf=quick_ctx.spec.vf_table.fastest)
        for decision in run.decisions:
            assert len({vf.index for vf in decision}) == 1
        # After actuation, power respects the cap (with model slack).
        assert all(p < 50.0 * 1.1 for p in run.measured_powers[2:])

    def test_per_cu_planes_beat_uniform_under_cap(self, quick_ctx):
        """The paper's per-CU-plane assumption buys throughput: mixed
        assignments fit the cap more tightly than uniform ones."""
        from repro.dvfs.power_capping import PPEPPowerCapper, UniformPowerCapper
        from repro.dvfs.governor import run_controlled
        from repro.hardware.platform import CoreAssignment, Platform
        from repro.workloads.suites import spec_program

        def throughput(capper_cls):
            platform = Platform(
                quick_ctx.spec, seed=22, initial_temperature=320.0
            )
            platform.set_assignment(
                CoreAssignment.one_per_cu(
                    quick_ctx.spec, [spec_program("458")] * 4
                )
            )
            capper = capper_cls(quick_ctx.full_ppep, 55.0)
            run = run_controlled(platform, capper, 12,
                                 initial_vf=quick_ctx.spec.vf_table.slowest)
            return sum(s.total_instructions() for s in run.samples[4:])

        assert throughput(PPEPPowerCapper) >= throughput(UniformPowerCapper) * 0.999
