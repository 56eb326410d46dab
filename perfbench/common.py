"""Pieces the three workloads share: training, set-up timing, results."""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from perfbench.hostspeed import HostSpeed
from perfbench.metrics import MetricSet

__all__ = [
    "SETUP_REPEATS",
    "WorkloadResult",
    "make_registry",
    "peak_rss_mb",
    "repeat_setup",
    "reset_peak_rss",
    "rss_detail",
    "scratch_dir",
    "traced_segments",
]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Calibration slices around each set-up (see :mod:`perfbench.hostspeed`).
CALIBRATIONS_PER_SETUP = 3

#: Where runs keep checkpoints, event logs and span dumps, relative to
#: the checkout root (listed in ``.gitignore``; removed after each run).
WORK_DIR = ".perfbench-work"


@dataclass
class WorkloadResult:
    """What one workload run reports."""

    #: End-to-end metrics (untraced run).
    metrics: MetricSet = field(default_factory=MetricSet)
    #: Per-layer metrics (traced run); empty unless tracing was asked for.
    layers: MetricSet = field(default_factory=MetricSet)
    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Human-readable context printed ahead of the metrics.
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _n, ok, _d in self.checks)


#: Training seed of the models under test.  The models are part of the
#: system, not of the workload: ``--seed`` varies the telemetry they
#: are asked about, never the models themselves.
TRAINING_SEED = 20141213


def make_registry():
    """A fresh quick-training model registry (the benchmarks' roster)."""
    from repro.fleet.registry import ModelRegistry
    from repro.workloads.suites import spec_combinations

    return ModelRegistry(
        combos=spec_combinations()[:3],
        bench_intervals=4,
        cool_intervals=20,
        base_seed=TRAINING_SEED,
    )


def repeat_setup(
    setup: Callable[[], object],
    speed: HostSpeed,
    teardown: Optional[Callable[[object], object]] = None,
    repeats: int = SETUP_REPEATS,
):
    """Run ``setup`` ``repeats`` times; (median seconds, all times, last result).

    Each time is scaled to the reference host speed by calibration
    slices run on ``speed`` between the set-ups.  ``teardown`` (untimed)
    releases each set-up but the last.
    """
    spans = []
    result = None
    for i in range(repeats):
        if i and teardown is not None:
            teardown(result)
        # Garbage left by load generation or the previous set-up is not
        # this set-up's cost.
        gc.collect()
        for _ in range(CALIBRATIONS_PER_SETUP):
            speed.sample()
        started = time.perf_counter()
        result = setup()
        spans.append((started, time.perf_counter() - started))
    for _ in range(CALIBRATIONS_PER_SETUP):
        speed.sample()
    times = [speed.scale(seconds, started + seconds / 2.0) for started, seconds in spans]
    return statistics.median(times), times, result


def traced_segments(tracer, install: Callable, run_segment: Callable[[], object], segments: int):
    """Alternate untraced and traced segments of the same work.

    Even segments run untraced, odd ones with the wrappers ``install``
    puts in place, so both kinds sample the same stretch of machine
    time.  Returns the traced windows (for ``unaccounted_frac``), the
    tracing overhead in percent (mean traced vs mean untraced segment
    time) and the number of traced segments.
    """
    times: dict = {False: [], True: []}
    windows = []
    for i in range(max(2, segments)):
        traced = i % 2 == 1
        if traced:
            install(tracer)
        try:
            start = tracer.clock()
            run_segment()
            end = tracer.clock()
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(end - start)
        if traced:
            windows.append((start, end))
    untraced = sum(times[False]) / len(times[False])
    traced_mean = sum(times[True]) / len(times[True])
    return windows, 100.0 * (traced_mean / untraced - 1.0), len(times[True])


def reset_peak_rss() -> bool:
    """Restart this process's VmHWM from its current resident set.

    Called after load generation and set-up, so :func:`peak_rss_mb`
    covers only what follows.  False where the kernel refuses (the peak
    then stays the process lifetime's).
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM) in MB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    # Linux reports ru_maxrss in KB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_detail(reset: bool, loop: str) -> str:
    """The printed description of a :func:`peak_rss_mb` reading."""
    if reset:
        return "VmHWM of the benchmark process over the timed {} (reset after set-up)".format(loop)
    return "VmHWM of the benchmark process over its lifetime (the kernel refused a reset)"


@contextlib.contextmanager
def scratch_dir(root: str, prefix: str):
    """A fresh directory under the checkout's work dir, removed afterwards."""
    base = os.path.join(root, WORK_DIR)
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
