"""Tiny end-to-end smoke of every workload, traced, with its output checks."""

import json
import os

import pytest

from perfbench import explore, fleet, serve

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _contract_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)[section]]


@pytest.mark.parametrize("module, seconds", [(serve, 0.2), (fleet, 0.5), (explore, 0.5)])
def test_workload_smoke(module, seconds, tmp_path):
    result = module.run(seed=5, seconds=seconds, trace=True, root=str(tmp_path))
    assert result.checks and result.correct, result.checks
    assert result.attempted >= 1 and result.failed == 0
    e2e = result.metrics.subset(_contract_names("end_to_end"))
    assert all(v["value"] > 0 for v in e2e.values()), e2e
    layers = result.layers.subset(_contract_names("per_layer"))
    assert 0.0 <= layers["unaccounted_frac"]["value"] < 1.0
    # Scratch space (checkpoints, events, span dumps) is cleaned up.
    assert not os.path.exists(tmp_path / ".perfbench-work")
