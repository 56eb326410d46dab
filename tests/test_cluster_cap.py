"""Unit and closed-loop tests for hierarchical fleet power capping."""

import numpy as np
import pytest

from repro.dvfs.power_capping import square_wave_cap
from repro.fleet import ClusterPowerManager, allocate_budget, make_fleet
from repro.fleet.cluster_cap import QuarantinePolicy
from repro.obs.events import EventLog
from repro.hardware.microarch import FX8320_SPEC


class TestAllocateBudget:
    DEMAND = np.array([80.0, 40.0, 20.0])
    FLOOR = np.array([30.0, 20.0, 15.0])

    def test_uniform_splits_equally(self):
        shares = allocate_budget("uniform", 90.0, self.DEMAND, self.FLOOR)
        np.testing.assert_allclose(shares, [30.0, 30.0, 30.0])

    def test_proportional_follows_demand(self):
        shares = allocate_budget("proportional", 70.0, self.DEMAND, self.FLOOR)
        np.testing.assert_allclose(shares, [40.0, 20.0, 10.0])
        assert shares.sum() == pytest.approx(70.0)

    def test_proportional_zero_demand_falls_back_to_uniform(self):
        shares = allocate_budget(
            "proportional", 60.0, np.zeros(3), np.zeros(3)
        )
        np.testing.assert_allclose(shares, [20.0, 20.0, 20.0])

    def test_waterfill_grants_floors_then_fills(self):
        # Budget 95: floors take 65, the remaining 30 fills equally;
        # node 2 saturates at its 20 W demand (floor 15 + 5), and the
        # leftover tops up the unsaturated nodes.
        shares = allocate_budget("waterfill", 95.0, self.DEMAND, self.FLOOR)
        assert shares.sum() == pytest.approx(95.0)
        assert (shares >= self.FLOOR - 1e-9).all()
        assert shares[2] == pytest.approx(20.0)  # capped at demand
        assert shares[0] == pytest.approx(shares[1] + 10.0)  # equal fill

    def test_waterfill_saturated_fleet_leaves_budget_unspent(self):
        shares = allocate_budget("waterfill", 1000.0, self.DEMAND, self.FLOOR)
        np.testing.assert_allclose(shares, self.DEMAND)

    def test_waterfill_infeasible_budget_scales_floors(self):
        shares = allocate_budget("waterfill", 32.5, self.DEMAND, self.FLOOR)
        np.testing.assert_allclose(shares, self.FLOOR / 2.0)

    def test_shares_never_exceed_budget(self):
        for policy in ("uniform", "proportional", "waterfill"):
            shares = allocate_budget(policy, 55.0, self.DEMAND, self.FLOOR)
            assert shares.sum() <= 55.0 + 1e-9

    def test_unhealthy_nodes_get_only_their_floor(self):
        shares = allocate_budget(
            "proportional", 70.0, self.DEMAND, self.FLOOR,
            healthy=[True, False, True],
        )
        # Node 1 is pinned to its 20 W floor; the other 50 W follow the
        # healthy nodes' demand (80 : 20).
        np.testing.assert_allclose(shares, [40.0, 20.0, 10.0])
        np.testing.assert_allclose(
            allocate_budget(
                "uniform", 10.0, self.DEMAND, self.FLOOR,
                healthy=[False, False, True],
            ),
            [30.0, 20.0, 0.0],
        )
        np.testing.assert_array_equal(
            allocate_budget(
                "waterfill", 95.0, self.DEMAND, self.FLOOR, healthy=[True] * 3
            ),
            allocate_budget("waterfill", 95.0, self.DEMAND, self.FLOOR),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_budget("nonsense", 50.0, self.DEMAND, self.FLOOR)
        with pytest.raises(ValueError):
            allocate_budget("uniform", -1.0, self.DEMAND, self.FLOOR)
        with pytest.raises(ValueError):
            allocate_budget("uniform", 50.0, self.DEMAND, self.FLOOR[:2])


class TestQuarantinePolicy:
    def test_streak_quarantine_and_readmission(self):
        events = EventLog()
        guard = QuarantinePolicy(["a", "b"], [[1, 1], [1, 1]], 2, events)
        assert guard.observe(0, False, 0)
        assert not guard.observe(0, False, 1)  # second BAD interval
        assert guard.quarantined_since == [1, None]
        assert not guard.observe(0, False, 2)  # no second enter event
        assert guard.observe(0, True, 3)
        assert guard.quarantined_since == [None, None]
        assert [(e["type"], e["node"], e["interval"]) for e in events.records] == [
            ("quarantine_enter", "a", 1),
            ("quarantine_exit", "a", 3),
        ]
        assert events.records[0]["bad_streak"] == 2
        assert events.records[1]["quarantined_intervals"] == 2

    def test_hold_pins_keeps_and_adopts(self):
        guard = QuarantinePolicy(["a"], [[1, 1]], 3)
        # Nothing held yet: a non-actionable interval passes through.
        assert guard.hold(0, [5, 4], True, False) == [5, 4]
        assert guard.held == [None]
        assert guard.hold(0, [5, 3], True, True) == [5, 3]  # adopted
        assert guard.hold(0, [2, 2], True, False) == [5, 3]  # kept
        assert guard.hold(0, [4, 4], False, True) == [1, 1]  # pinned
        assert guard.held == [None]

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="unhealthy_after"):
            QuarantinePolicy(["a"], [[1]], 0)


class TestClusterPowerManager:
    def test_rejects_unknown_policy(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC], tiny_registry)
        with pytest.raises(ValueError):
            ClusterPowerManager(fleet, 100.0, policy="nonsense")

    def test_rejects_empty_run(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC], tiny_registry)
        manager = ClusterPowerManager(fleet, 100.0)
        with pytest.raises(ValueError):
            manager.run(0)

    @pytest.mark.parametrize("policy", ["proportional", "waterfill"])
    def test_settles_within_one_interval_of_cap_changes(
        self, tiny_registry, policy
    ):
        """The acceptance bar: fleet power back under the cluster cap
        within one decision interval of each cap change."""
        fleet = make_fleet([FX8320_SPEC] * 3, tiny_registry)
        schedule = square_wave_cap(3 * 85.0, 3 * 50.0, 5)
        manager = ClusterPowerManager(fleet, schedule, policy=policy)
        run = manager.run(15)
        result = run.evaluate()
        assert result.worst_settle <= 1
        # Any over-cap interval must be explainable: the uncontrolled
        # first interval (nodes start fastest) or a cap-drop interval.
        for i, (power, cap) in enumerate(zip(run.fleet_powers, run.caps)):
            if power > cap:
                assert i == 0 or run.caps[i] < run.caps[i - 1], (
                    "unexplained violation at interval {}: {:.1f} W > "
                    "{:.1f} W".format(i, power, cap)
                )

    def test_shares_respect_cluster_budget(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC] * 3, tiny_registry)
        manager = ClusterPowerManager(fleet, 180.0, policy="waterfill")
        run = manager.run(6)
        for shares in run.shares:
            assert sum(shares) <= 180.0 + 1e-6

    def test_demand_aware_beats_uniform_on_throughput(self, tiny_registry):
        """With unevenly loaded nodes, routing budget to the busy ones
        retires more instructions under the same cluster cap."""
        def run_policy(policy):
            fleet = make_fleet(
                [FX8320_SPEC] * 4, tiny_registry, busy_cus=[4, 1, 4, 1]
            )
            manager = ClusterPowerManager(fleet, 4 * 52.0, policy=policy)
            return manager.run(12)

        uniform = run_policy("uniform")
        proportional = run_policy("proportional")
        assert (
            proportional.total_instructions()
            > uniform.total_instructions()
        )

    def test_record_shapes(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC] * 2, tiny_registry)
        run = ClusterPowerManager(fleet, 150.0).run(4)
        assert run.node_names == ["node00", "node01"]
        assert len(run.caps) == len(run.node_powers) == 4
        assert all(len(row) == 2 for row in run.node_powers)
        assert len(run.fleet_powers) == 4
        assert run.total_instructions() > 0

    def test_ledger_scores_repaired_power(self, tiny_registry):
        """A spiked interval is scored against the filter's repaired
        power, as the shard's HardenedPPEP scores it, while the run's
        reported node powers stay raw."""
        from repro.faults.filtering import REPAIRED, HardenedPPEP
        from repro.obs.ledger import PredictionLedger
        from tests.fleet_oracle import FAULTS, MIXED_SPECS

        fleet = make_fleet(MIXED_SPECS, tiny_registry, fault_specs=FAULTS)
        manager = ClusterPowerManager(
            fleet, 420.0, policy="waterfill", harden=True,
            ledger=PredictionLedger(),
        )
        seen = []
        ingest = manager._filters.ingest_many

        def spy(samples):
            verdicts = ingest(samples)
            seen.append((samples[0], verdicts[0]))
            return verdicts

        manager._filters.ingest_many = spy
        run = manager.run(30)

        node = fleet.nodes[0]
        shard = HardenedPPEP(node.ppep, node=node.name, ledger=PredictionLedger())
        for sample, _verdict in seen:
            shard.estimate_current(sample)
        fleet_rows = {
            r.interval: r for r in manager.ledger.records if r.node == node.name
        }
        shard_rows = {r.interval: r for r in shard.ledger.records}
        spiked = [
            t for t, (sample, verdict) in enumerate(seen)
            if verdict.quality == REPAIRED and "spike" in verdict.issues
            and t in fleet_rows
        ]
        assert spiked
        for t in spiked:
            sample, verdict = seen[t]
            repaired = verdict.sample.measured_power
            assert repaired != sample.measured_power
            assert fleet_rows[t].measured_power == repaired
            assert shard_rows[t].measured_power == repaired
            assert run.node_powers[t][0] == sample.measured_power
