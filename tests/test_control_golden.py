"""Both cluster controllers against their committed golden streams.

``tests/data/control_golden.json`` (see :mod:`tests.control_golden`)
pins, for the fleet controller and the SKU shards on the fault-injected
mixed-SKU roster:

- the full event stream, byte for byte -- every quarantine transition,
  held decision, floor-only allocation and ``cap_reallocation`` shows up
  in it;
- the mid-run ``state_dict()`` payloads: they must equal what the code
  produces today, and must load into a fresh controller and resume with
  the decisions of an uninterrupted run.

The streams rest on trained models and simulated telemetry, so their
floats are only reproducible where NumPy computes the same bits as on
the machine that wrote the fixture; the fingerprint check skips the
module, naming the regeneration command, everywhere else.
"""

import json

import pytest

from repro.fleet.cluster_cap import ClusterPowerManager
from repro.obs.events import EventLog
from repro.obs.ledger import PredictionLedger
from tests import control_golden as golden_mod
from tests.control_golden import (
    INTERVALS,
    MID,
    canonical,
    feed,
    fleet_manager,
    shard_pipelines,
    shard_stream,
)


@pytest.fixture(scope="module")
def golden(tiny_registry):
    with open(golden_mod.GOLDEN, encoding="utf-8") as handle:
        data = json.load(handle)
    if golden_mod.fingerprint(tiny_registry) != data["fingerprint"]:
        pytest.skip(
            "this platform's floating point differs from the one that wrote "
            "the golden control streams; regenerate them with "
            "`PYTHONPATH=src python -m tests.control_golden` at a commit "
            "known to be correct"
        )
    assert (data["intervals"], data["mid"]) == (INTERVALS, MID)
    return data


def _plain(state):
    return json.loads(canonical(state))


def _lines(events):
    return [canonical(e) for e in events.records]


class TestFleetGolden:
    def test_event_stream_and_mid_state_match(self, tiny_registry, golden):
        manager = fleet_manager(tiny_registry)
        manager.run(MID)
        assert _plain(manager.state_dict()) == golden["fleet"]["state"]
        manager.run(INTERVALS - MID, resume=True)
        assert _lines(manager.events) == golden["fleet"]["events"]

    def test_golden_checkpoint_resumes_bit_identically(
        self, tiny_registry, golden
    ):
        uninterrupted = fleet_manager(tiny_registry)
        expected = uninterrupted.run(INTERVALS)

        # Bring a second fleet's platforms to the mid-run point, then
        # hand them to a freshly built manager restored from the golden
        # payload alone.
        warm = fleet_manager(tiny_registry)
        warm.run(MID)
        restored = ClusterPowerManager(
            warm.fleet,
            cap_schedule=warm._schedule,
            policy=warm.policy,
            harden=True,
            events=warm.events,
            ledger=PredictionLedger(),
        )
        restored.load_state_dict(golden["fleet"]["state"])
        tail = restored.run(INTERVALS - MID, resume=True)

        for field in ("caps", "shares", "node_powers", "node_quality",
                      "node_healthy"):
            assert getattr(tail, field) == getattr(expected, field)[MID:]
        assert restored.state_dict() == uninterrupted.state_dict()
        # The manager's own events (the ledger is the caller's and did
        # not travel with the checkpoint) continue the golden stream.
        control = ("filter_verdict", "quarantine_enter", "quarantine_exit",
                   "cap_reallocation")
        at_mid = golden["fleet"]["events_at_mid"]
        assert [
            line for line in _lines(warm.events)[at_mid:]
            if json.loads(line)["type"] in control
        ] == [
            line for line in golden["fleet"]["events"][at_mid:]
            if json.loads(line)["type"] in control
        ]


class TestShardGolden:
    def test_event_stream_and_mid_state_match(self, tiny_registry, golden):
        names, specs, intervals = shard_stream(tiny_registry)
        events = EventLog()
        pipelines = shard_pipelines(tiny_registry, names, specs, events)
        feed(pipelines, names, specs, intervals[:MID])
        assert _plain(
            {p.sku: p.state_dict() for p in pipelines.values()}
        ) == golden["shard"]["state"]
        feed(pipelines, names, specs, intervals[MID:])
        assert _lines(events) == golden["shard"]["events"]

    def test_golden_checkpoint_resumes_bit_identically(
        self, tiny_registry, golden
    ):
        names, specs, intervals = shard_stream(tiny_registry)
        reference = shard_pipelines(tiny_registry, names, specs, EventLog())
        expected = feed(reference, names, specs, intervals)

        events = EventLog()
        restored = shard_pipelines(tiny_registry, names, specs, events)
        for pipeline in restored.values():
            pipeline.load_state_dict(golden["shard"]["state"][pipeline.sku])
        decisions = feed(restored, names, specs, intervals[MID:])

        assert decisions == expected[MID:]
        assert _lines(events) == golden["shard"]["events"][
            golden["shard"]["events_at_mid"]:
        ]
        for sku, pipeline in restored.items():
            assert pipeline.state_dict() == reference[sku].state_dict()
