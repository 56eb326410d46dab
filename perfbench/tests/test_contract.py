"""BENCHMARK.json against the benchmark's own layer map and limits."""

import json
import os
import re
import shutil
import subprocess
import sys

from perfbench.breakdown import PER_LAYER
from perfbench.metrics import NAME_RE

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_keys_names_units_and_bounds():
    contract = _contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in contract["end_to_end"])}]


def test_per_layer_matches_layer_map():
    contract = _contract()
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == [
        (name, unit, better) for name, unit, better, _module, _moves in PER_LAYER
    ]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
