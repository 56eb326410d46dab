"""The metric hygiene rules: percentiles, ratios and names."""

import pytest

from perfbench.metrics import (
    MetricSet,
    check_name,
    percentile,
    ratio,
    samples_beyond,
    tail_percentile,
    timing,
)


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(expected, n) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile(values, 100.0) == 100
    assert samples_beyond(90.0, 100) == 10
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile(values, 0.0)


def test_fixed_tail_falls_back_when_run_is_too_short():
    long = timing(list(range(1000)), fixed_tail=99.0)
    assert long["tail_p"] == 99.0 and long["n"] == 1000
    short = timing(list(range(48)), fixed_tail=90.0)
    assert short["tail_p"] == 75.0
    assert timing([])["n"] == 0


def test_ratio_keeps_its_base():
    assert ratio(3, 4) == {"value": 0.75, "num": 3, "den": 4}
    assert ratio(0, 0)["value"] == 0.0


@pytest.mark.parametrize("name", ["setup_s", "shard.busy_frac.fx8320", "self_us.capper", "a-b", "9lives"])
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", ".hidden", "has space", "slash/name", "x" * 65, "ünï"])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_metric_set_prints_count_and_base_and_rejects_duplicates():
    m = MetricSet()
    m.add_timing("lat_ms", [float(v) for v in range(100)], "ms", tail_name="lat_tail_ms", fixed_tail=90.0)
    m.add_ratio("bad_frac", 1, 4)
    assert m.values["lat_ms"] == {"value": 49.0, "unit": "ms"}
    assert m.values["lat_tail_ms"]["value"] == 89.0
    assert "n=100" in m.lines[0] and "p90" in m.lines[0]
    assert "= 1 / 4" in m.lines[2]
    with pytest.raises(ValueError):
        m.add("bad_frac", 0.5, "ratio")
    with pytest.raises(ValueError):
        m.add("bad name", 0.5, "ratio")
    assert m.subset(["bad_frac"]) == {"bad_frac": {"value": 0.25, "unit": "ratio"}}
    with pytest.raises(KeyError):
        m.subset(["missing"])
