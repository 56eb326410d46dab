"""Spans: wrapping, self time, coverage and the cross-process join."""

import multiprocessing
import time

import pytest

from perfbench.breakdown import layer_metrics
from perfbench.tracer import Tracer, covered_ns, join_on_key, load_dumps, self_times


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


class Layered:
    """outer() spends 10 ns itself around inner(), which takes 30 ns twice."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.advance(4)
        self.inner()
        self.clock.advance(6)
        self.inner()
        return "done"

    def inner(self):
        self.clock.advance(30)


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.wrap(Layered, "outer", "a.outer")
    tracer.wrap(Layered, "inner", "b.inner")
    try:
        assert Layered(clock).outer() == "done"
    finally:
        tracer.uninstall()
    assert not hasattr(Layered.outer, "__wrapped__")
    outer = [s for s in tracer.spans if s[0] == "a.outer"][0]
    inners = [s for s in tracer.spans if s[0] == "b.inner"]
    assert outer[2] - outer[1] == 70
    assert all(s[4] == outer[3] for s in inners)
    assert self_times(tracer.spans) == {"a.outer": 10, "b.inner": 60}


def test_call_that_raises_is_recorded_and_unwinds_the_stack():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Boom:
        def go(self):
            clock.advance(5)
            raise RuntimeError("boom")

    tracer.wrap(Boom, "go", "x.go")
    tracer.wrap(Layered, "inner", "b.inner")
    try:
        with pytest.raises(RuntimeError):
            Boom().go()
        Layered(clock).inner()
    finally:
        tracer.uninstall()
    assert [(span[0], span[2] - span[1], span[6]) for span in tracer.spans] == [
        ("x.go", 5, "raised"), ("b.inner", 30, None),
    ]
    # The failed call left no frame behind: the next call is a root span.
    assert tracer.spans[1][4] is None


def test_covered_ns_merges_overlaps_and_clips_to_window():
    spans = [
        ("a", 0, 10, "1", None, None, None),
        ("b", 5, 20, "2", None, None, None),
        ("c", 30, 40, "3", None, None, None),
        ("d", 95, 200, "4", None, None, None),
    ]
    assert covered_ns(spans, (0, 100)) == 20 + 10 + 5


def _child(directory, key):
    tracer = Tracer()
    started = tracer.clock()
    time.sleep(0.01)
    tracer.record("shard.process", started, tracer.clock(), key=key)
    tracer.dump("{}/child.json".format(directory), role="worker:fx8320")


def test_cross_process_join_on_one_monotonic_clock(tmp_path):
    upstream = Tracer()
    started = upstream.clock()
    upstream.record("manager.submit", started, upstream.clock(), key=("n0", 7), note="accepted")
    upstream.record("manager.submit", started, upstream.clock(), key=("n1", 7), note="accepted")
    process = multiprocessing.get_context("fork").Process(target=_child, args=(str(tmp_path), ("n0", 7)))
    process.start()
    process.join(timeout=30)
    assert not process.is_alive() and process.exitcode == 0
    (dump,) = load_dumps(str(tmp_path))
    assert dump["role"] == "worker:fx8320"
    pairs = join_on_key(upstream.spans, dump["spans"])
    assert len(pairs) == 1
    submit, processed = pairs[0]
    assert submit[5] == ["n0", 7] and processed[5] == ("n0", 7)
    assert processed[1] >= submit[2]  # the wait is never negative

    metrics = layer_metrics(
        [{"role": "ingest", "spans": upstream.spans, "counts": {}}, dump], decided=1,
    )
    assert metrics.values["manager.queue_wait_p50_ms"]["value"] >= 0.0
    assert metrics.values["shard.busy_frac.fx8320"]["value"] == 1.0


def test_ingest_errors_come_from_the_service_counters():
    # A line that decodes but fails parse_telemetry leaves both spans, so
    # counting spans would call it a clean line; the ingest counters do not.
    import repro.serve.ingest as ingest

    tracer = Tracer()
    tracer.wrap(ingest, "decode_line", "ingest.decode_line")
    tracer.wrap(ingest, "parse_telemetry", "ingest.parse")
    stats = ingest.IngestStats()
    try:
        response = ingest._handle_line(None, b'{"type": "telemetry", "node": "n0", "seq": 1}', stats)
    finally:
        tracer.uninstall()
    assert response["status"] == "error"
    names = [s[0] for s in tracer.spans]
    assert names.count("ingest.decode_line") == names.count("ingest.parse") == 1
    counters = stats.as_dict()
    metrics = layer_metrics(
        [{"role": "ingest", "spans": tracer.spans, "counts": {}}], decided=1,
        extras={"ingest.lines": counters["lines"], "ingest.errors": counters["errors"]},
    )
    assert metrics.values["ingest.lines"]["value"] == 1
    assert metrics.values["ingest.errors"]["value"] == 1
