"""Host-speed normalisation: the factor, its window and the sampler thread."""

import os
import time

import pytest

from perfbench.hostspeed import REFERENCE_S, HostSpeed


def _speed(at, cal_s):
    speed = HostSpeed()
    speed.at, speed.cal_s = list(at), list(cal_s)
    return speed


def test_factor_is_reference_over_median_of_nearest_samples():
    # 40 slow samples, then 40 at the reference speed.
    speed = _speed(range(80), [2 * REFERENCE_S] * 40 + [REFERENCE_S] * 40)
    assert speed.factor(5.0) == pytest.approx(0.5)
    assert speed.factor(75.0) == pytest.approx(1.0)
    assert speed.scale(0.010, 75.0) == pytest.approx(0.010)
    assert speed.scale(0.010, 5.0) == pytest.approx(0.005)
    # Past either end, the window is the nearest NEAREST samples.
    assert speed.factor(-100.0) == pytest.approx(0.5)
    assert speed.factor(1000.0) == pytest.approx(1.0)


def test_one_outlier_does_not_move_the_factor():
    cal = [REFERENCE_S] * 30
    cal[15] = 100 * REFERENCE_S
    assert _speed(range(30), cal).factor(15.0) == pytest.approx(1.0)


def test_scale_span_weights_each_phase_by_its_length():
    # Slow (factor 0.25) from 0 to 40 s, reference speed from 40 to 80 s.
    speed = _speed([t + 0.5 for t in range(80)], [4 * REFERENCE_S] * 40 + [REFERENCE_S] * 40)
    # Each phase counts for its length (one factor for the whole span
    # would give 20 or 80); only the piece at the boundary is off.
    assert speed.scale_span(0.0, 80.0) == pytest.approx(40 * 0.25 + 40 * 1.0, abs=0.5)
    assert speed.scale_span(60.0, 70.0) == pytest.approx(10.0)


def test_no_samples_is_an_error():
    with pytest.raises(RuntimeError):
        HostSpeed().factor(0.0)


def test_background_samples_and_stops():
    speed = HostSpeed()
    affinity = os.sched_getaffinity(0)
    deadline = time.monotonic() + 30.0
    with speed.background(every_s=0.01):
        while len(speed.cal_s) < 4 and time.monotonic() < deadline:
            time.sleep(0.005)
    count = len(speed.cal_s)
    assert count >= 4 and speed.at == sorted(speed.at)
    assert all(c > 0 for c in speed.cal_s)
    # The sampler thread has ended and left this thread's CPUs alone.
    assert os.sched_getaffinity(0) == affinity
    assert len(speed.cal_s) == count
