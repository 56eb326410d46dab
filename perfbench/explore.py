"""``explore``: the paper's DVFS space exploration (the Figure 3 loop).

On the quick-scale FX-8320 :class:`~repro.experiments.common.ExperimentContext`
(24 combinations, 4 folds), every held-out trace interval at every
source VF state goes through ``PPEP.analyze``, which predicts power and
performance at every VF state -- 1,440 analyses per pass.

This is the only workload that runs the core Figure-5 predictor alone:
no capper, transport or stepping, so it shows no change for work on
those layers and guards the predictor itself.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import probes
from perfbench.breakdown import layer_metrics
from perfbench.common import (
    WorkloadResult, peak_rss_mb, repeat_setup, reset_peak_rss, rss_detail, traced_segments,
)
from perfbench.hostspeed import HostSpeed
from perfbench.metrics import percentile
from perfbench.tracer import Tracer

__all__ = ["run"]

#: Analyses per second the run is sized for (about ``--seconds`` today).
NOMINAL_RATE = 1300.0
#: The fold fits take tens of milliseconds, so more of them are timed.
SETUP_REPEATS = 25
#: Seconds of exploration between calibration slices (about 4% extra, off the clock).
CALIBRATE_EVERY_S = 0.05


def _context(seed: int, library=None):
    from repro.experiments.common import ExperimentContext
    from repro.hardware.microarch import FX8320_SPEC

    ctx = ExperimentContext(spec=FX8320_SPEC, scale="quick", base_seed=seed)
    if library is not None:
        ctx.library = library
    return ctx


def _load(ctx) -> List[Tuple[object, object, list]]:
    """Every (combo, source VF) trace the exploration reads, simulated now."""
    from repro.core.crossval import kfold_split

    ctx.warm_up(max_workers=1)
    work = []
    for _train, test in kfold_split(ctx.roster, k=4, seed=152):
        for combo in test:
            for vf in ctx.spec.vf_table:
                work.append((combo, vf, list(ctx.trace(combo, vf))))
    return work


def _explore(folds, traces: Dict[tuple, list], table, times: List[tuple], segments=None,
             speed: Optional[HostSpeed] = None):
    """One pass of the Figure 3 chip-power loop; returns its overall error.

    Mirrors ``fig03_cross_vf.run``: per held-out combination, the mean
    predicted chip power at each target VF (from each source VF) against
    the measured mean at that target.  ``times`` gets (start, seconds)
    of each ``analyze`` call, ``segments`` the same of each combination;
    between combinations, off the clock, ``speed`` takes a calibration
    slice.
    """
    pair_chip: Dict[Tuple[int, int], List[float]] = {
        (s.index, t.index): [] for s in table for t in table
    }
    clock = time.perf_counter
    for model, test in folds:
        for combo in test:
            segment_start = clock()
            measured = {
                vf.index: float(np.mean([s.measured_power for s in traces[combo.name, vf.index]]))
                for vf in table
            }
            for src in table:
                pred = {t.index: [] for t in table}
                for sample in traces[combo.name, src.index]:
                    started = clock()
                    snapshot = model.analyze(sample)
                    times.append((started, clock() - started))
                    for tgt in table:
                        pred[tgt.index].append(snapshot.prediction(tgt).chip_power)
                for tgt in table:
                    pc = float(np.mean(pred[tgt.index]))
                    mc = measured[tgt.index]
                    pair_chip[(src.index, tgt.index)].append(abs(pc - mc) / mc)
            if segments is not None:
                segments.append((segment_start, clock() - segment_start))
            if speed is not None:
                speed.due(CALIBRATE_EVERY_S)
    return float(np.mean([float(np.mean(errors)) for errors in pair_chip.values()]))


def run(seed: int, seconds: float, trace: bool, root: str) -> WorkloadResult:
    from repro.experiments import fig03_cross_vf

    result = WorkloadResult()
    # Load generation: every trace simulated before any clock starts.
    base = _context(seed)
    work = _load(base)
    traces = {(combo.name, vf.index): samples for combo, vf, samples in work}
    per_pass = sum(len(samples) for _c, _v, samples in work)
    passes = max(1, round(seconds * NOMINAL_RATE / per_pass))

    def setup():
        ctx = _context(seed, base.library)
        ctx.fold_models()
        return ctx

    speed = HostSpeed()
    setup_s, setup_all, ctx = repeat_setup(setup, speed, repeats=SETUP_REPEATS)
    folds = ctx.fold_models()
    table = ctx.spec.vf_table

    calls: List[tuple] = []
    segments: List[tuple] = []
    gc.collect()  # set-up garbage is not the exploration's cost
    rss_reset = reset_peak_rss()
    errors = [_explore(folds, traces, table, calls, segments, speed) for _ in range(passes)]
    rss_mb = peak_rss_mb()
    speed.sample()
    analyses = len(calls)
    raw_s = sum(seconds for _started, seconds in segments)
    wall_s = sum(speed.scale(seconds, started + seconds / 2.0) for started, seconds in segments)
    times = [speed.scale(seconds, started) for started, seconds in calls]

    # Output check (outside the clock): the same context through the
    # repository's own Figure 3 experiment.
    reference = fig03_cross_vf.run(ctx).overall_chip
    result.check(
        "power_err_pct == fig03_cross_vf.run overall chip error",
        all(e == reference for e in errors),
        "{!r} vs {!r}".format(errors[0], reference),
    )

    m = result.metrics
    m.add("setup_s", setup_s, "s", "fold-model fits; median of {} set-ups {}".format(
        len(setup_all), ["{:.3f}".format(t) for t in setup_all]))
    m.add(
        "intervals_per_s", analyses / wall_s, "node-intervals/s",
        "{} analyses ({} passes x {}) / {:.3f} s at reference speed ({:.3f} s measured)".format(
            analyses, passes, per_pass, wall_s, raw_s),
    )
    call_ms = [t * 1e3 for t in times]
    m.add_timing("latency_p50_ms", call_ms, "ms", aliases=("predict_p50_ms", ""))
    # The gated tail is p90: the p99 of a ~1 ms call moves by up to 2x
    # between runs with host interference that leaves the median alone.
    # A burst of interference lands in one pass, so the tail is each
    # pass's p90 (144 calls beyond it), median over the passes.
    pass_p90 = [
        percentile(call_ms[i: i + per_pass], 90.0) for i in range(0, len(call_ms), per_pass)
    ]
    m.add(
        "latency_tail_ms", statistics.median(pass_p90), "ms",
        "median over {} passes of each pass's p90 (n={} per pass); p90 of all {:.6g} ms, "
        "p99 {:.6g} ms (not gated)".format(
            len(pass_p90), per_pass, percentile(call_ms, 90.0), percentile(call_ms, 99.0)),
        alias="predict_p90_ms",
    )
    m.add("peak_rss_mb", rss_mb, "MB", rss_detail(rss_reset, "passes"))
    m.add("power_err_pct", 100.0 * errors[0], "%", "Fig. 3 overall chip-power error, {} VF pairs".format(
        len(table) ** 2))
    m.add_ratio("failed_frac", 0, analyses)
    result.attempted = analyses
    result.failed = 0
    result.notes.append(speed.describe())
    result.notes.append(
        "explore: quick-scale FX-8320 context, 4 folds, {} analyses per pass, {} passes; "
        "closed loop, one synchronous caller; predict = one PPEP.analyze call".format(per_pass, passes)
    )

    if trace:
        # Passes alternate untraced / traced.
        tracer = Tracer()
        windows, overhead, traced_passes = traced_segments(
            tracer, probes.install_explore,
            lambda: _explore(folds, traces, table, []), passes,
        )
        result.layers = layer_metrics(
            [{"role": "main", "spans": tracer.spans, "counts": dict(tracer.counts)}],
            decided=traced_passes * per_pass,
            lanes={"main": windows},
            extras={
                # Explore trains no registry; its set-up is the fold fits.
                "registry.train_s": setup_s,
                "trace_overhead_pct": overhead,
            },
        )
    return result
