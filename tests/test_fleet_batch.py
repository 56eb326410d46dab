"""Fleet-layer equivalence against the per-node references.

The fleet's contract is not "close": capper pricing
(:class:`~repro.core.ppep.MixedPricer`), the telemetry-filter roster
(:class:`~repro.faults.filtering.BatchTelemetryFilter`), ledger
accounting (:meth:`~repro.obs.ledger.PredictionLedger.record_many`),
and the :class:`~repro.fleet.cluster_cap.ClusterPowerManager` loop
built on them must reproduce the per-node references of
:mod:`tests.fleet_oracle` bit for bit.  Fleet stepping is one
``platform.step()`` per node, so the controller and its reference step
through the same code.  These tests run mixed-SKU rosters with ~5%
fault rates, drive quarantine enter/exit, and swap checkpoints between
the cached-pricer and the reference controller mid-run.
"""

import random

from repro.faults.filtering import BatchTelemetryFilter, TelemetryFilter
from repro.fleet.cluster_cap import ClusterPowerManager
from repro.fleet.simulator import make_fleet
from repro.hardware.microarch import FX8320_SPEC
from repro.obs.events import EventLog
from repro.obs.ledger import PredictionLedger
from tests.fleet_oracle import (
    FAULTS,
    MIXED_SPECS,
    UncachedModel,
    per_node,
    per_node_shard,
)


class TestMixedPricer:
    def test_price_matches_predict_mixed(self, tiny_registry):
        fleet = make_fleet([FX8320_SPEC], tiny_registry)
        node = fleet.nodes[0]
        sample = node.platform.step()
        states = node.ppep.core_states(sample)
        pricer = node.ppep.mixed_pricer(
            states, sample.temperature, sample.power_gating
        )
        table = node.spec.vf_table
        rng = random.Random(11)
        for _ in range(60):
            targets = [
                table.by_index(rng.randint(1, len(table)))
                for _ in range(node.spec.num_cus)
            ]
            assert pricer.price(targets) == node.ppep.predict_mixed(
                states, sample.temperature, targets, sample.power_gating
            )

    def test_capper_pricer_decisions_identical(self, tiny_registry):
        from repro.dvfs.power_capping import ExternalBudget, PPEPPowerCapper

        fleet = make_fleet([FX8320_SPEC], tiny_registry)
        node = fleet.nodes[0]
        budget_a, budget_b = ExternalBudget(60.0), ExternalBudget(60.0)
        fast = PPEPPowerCapper(node.ppep, budget_a)
        slow = PPEPPowerCapper(UncachedModel(node.ppep), budget_b)
        for _ in range(10):
            sample = node.platform.step()
            da = [vf.index for vf in fast.decide(sample)]
            db = [vf.index for vf in slow.decide(sample)]
            assert da == db


class TestBatchTelemetryFilter:
    def test_bit_identical_verdicts_and_state(self, tiny_registry):
        fleet = make_fleet(MIXED_SPECS, tiny_registry, fault_specs=FAULTS)
        scalar = [TelemetryFilter(n.spec) for n in fleet.nodes]
        batch = BatchTelemetryFilter([n.spec for n in fleet.nodes])
        for _ in range(40):
            samples = fleet.step()
            outs_s = [f.ingest(s) for f, s in zip(scalar, samples)]
            outs_b = batch.ingest_many(samples)
            for a, b in zip(outs_s, outs_b):
                assert a.quality == b.quality
                assert a.issues == b.issues
                assert a.power == b.power
                assert (
                    a.sample.measured_power == b.sample.measured_power
                )
                assert list(a.sample.power_samples) == list(
                    b.sample.power_samples
                )
                for ea, eb in zip(a.sample.core_events, b.sample.core_events):
                    assert ea.as_list() == eb.as_list()
        # Checkpoints interoperate: per-node dicts match field for field.
        assert batch.node_state_dicts() == [f.state_dict() for f in scalar]

    def test_scalar_checkpoint_restores_into_batch(self, tiny_registry):
        fleet = make_fleet(MIXED_SPECS[:3], tiny_registry, fault_specs=FAULTS)
        scalar = [TelemetryFilter(n.spec) for n in fleet.nodes]
        for _ in range(15):
            samples = fleet.step()
            for f, s in zip(scalar, samples):
                f.ingest(s)
        batch = BatchTelemetryFilter([n.spec for n in fleet.nodes])
        batch.load_node_state_dicts([f.state_dict() for f in scalar])
        for _ in range(10):
            samples = fleet.step()
            outs_s = [f.ingest(s) for f, s in zip(scalar, samples)]
            outs_b = batch.ingest_many(samples)
            for a, b in zip(outs_s, outs_b):
                assert (a.quality, a.issues, a.power) == (
                    b.quality,
                    b.issues,
                    b.power,
                )


class TestRecordMany:
    def test_matches_sequential_record(self):
        rng = random.Random(3)
        nodes = ["n{:02d}".format(i) for i in range(10)]
        a, b = PredictionLedger(), PredictionLedger()
        for t in range(50):
            rows = []
            for i, node in enumerate(nodes):
                meas = 40.0 + 10 * rng.random() + (
                    15.0 if t >= 35 and i % 3 == 0 else 0.0
                )
                rows.append(
                    dict(
                        node=node,
                        interval=t,
                        vf_index=1 + (i % 4),
                        predicted_power=meas + rng.gauss(0.0, 1.5),
                        measured_power=meas,
                        interval_s=0.2,
                        quality="good",
                    )
                )
            for row in rows:
                a.record(**row)
            b.record_many(rows)
        assert a.state_dict() == b.state_dict()
        assert a.drift_flags == b.drift_flags
        assert len(a.drift_flags) > 0  # the shift actually tripped CUSUM
        for ra, rb in zip(a.records, b.records):
            assert (ra.node, ra.interval, ra.error, ra.drift) == (
                rb.node,
                rb.interval,
                rb.error,
                rb.drift,
            )

    def test_duplicate_nodes_fall_back(self):
        ledger = PredictionLedger()
        rows = [
            dict(
                node="n0",
                interval=t,
                vf_index=1,
                predicted_power=50.0,
                measured_power=49.0,
                interval_s=0.2,
            )
            for t in range(3)
        ]
        out = ledger.record_many(rows)
        assert len(out) == 3
        assert ledger._node("n0").records == 3


class TestClusterManagerBatched:
    def _build(self, registry):
        return ClusterPowerManager(
            make_fleet(MIXED_SPECS, registry, fault_specs=FAULTS),
            cap_schedule=420.0,
            policy="waterfill",
            harden=True,
            ledger=PredictionLedger(),
            events=EventLog(),
        )

    def test_full_loop_bit_identical(self, tiny_registry):
        ma = self._build(tiny_registry)
        mb = per_node(self._build(tiny_registry))
        ra = ma.run(30)
        rb = mb.run(30)
        # Decisions, shares, verdicts, and health: bit-identical.
        assert ra.caps == rb.caps
        assert ra.shares == rb.shares
        assert ra.node_powers == rb.node_powers
        assert ra.node_instructions == rb.node_instructions
        assert ra.node_true_powers == rb.node_true_powers
        assert ra.node_quality == rb.node_quality
        assert ra.node_healthy == rb.node_healthy
        # The dropout node was actually quarantined during the run.
        assert any(not all(row) for row in ra.node_healthy)
        # All downstream state (cappers, filters, ledger stats, drift
        # verdicts, quarantine bookkeeping) agrees too.
        assert ma.state_dict() == mb.state_dict()
        assert ma.ledger.state_dict() == mb.ledger.state_dict()
        assert ma.events.records == mb.events.records

    def test_cross_mode_checkpoint_swap(self, tiny_registry):
        ma = self._build(tiny_registry)
        mb = per_node(self._build(tiny_registry))
        ma.run(20)
        mb.run(20)
        # Both fleets are in the identical platform state (proven by the
        # test above), so the checkpoints can swap between the
        # cached-pricer and the reference controller.
        sd_a, sd_b = ma.state_dict(), mb.state_dict()
        mb.load_state_dict(sd_a)
        ma.load_state_dict(sd_b)
        ra = ma.run(12, resume=True)
        rb = mb.run(12, resume=True)
        assert ra.shares == rb.shares
        assert ra.node_quality == rb.node_quality
        assert ra.node_healthy == rb.node_healthy
        assert ma.state_dict() == mb.state_dict()


class TestShardPipelineBatched:
    def test_cached_pricer_decisions_identical(self, tiny_registry):
        from repro.serve.shard import ShardPipeline

        fleet = make_fleet([FX8320_SPEC] * 3, tiny_registry, fault_specs=FAULTS)
        names = [n.name for n in fleet.nodes]
        ppep = fleet.nodes[0].ppep

        def build():
            return ShardPipeline(
                sku="fx8320",
                spec=FX8320_SPEC,
                ppep=ppep,
                node_names=names,
                budget_w=180.0,
            )

        fast, slow = build(), per_node_shard(build())
        for _ in range(15):
            samples = fleet.step()
            for name, sample in zip(names, samples):
                oa = fast.process(name, sample)
                ob = slow.process(name, sample)
                assert oa == ob
        assert fast.state_dict() == slow.state_dict()
