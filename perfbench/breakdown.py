"""Per-layer metrics from traced spans.

:data:`PER_LAYER` is the layer map: every per-layer metric with its
unit, the program module it measures, and the end-to-end metric (and
workload) it should move.  Every traced run reports every metric in it;
a layer a workload never calls reports 0, which is the prediction for
that workload ("stays flat").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from perfbench.metrics import MetricSet
from perfbench.tracer import END, KEY, NAME, NOTE, PARENT, START, covered_ns, join_on_key, self_times

__all__ = ["LAYERS", "PER_LAYER", "layer_metrics"]

#: Layers that get a self-time metric (span names are ``<layer>.<op>``).
LAYERS = (
    "client", "ingest", "manager", "ipc", "shard", "filter", "capper",
    "pricer", "batch", "ppep", "alloc", "fleet", "cluster", "ledger",
    "events", "checkpoint",
)

#: (name, unit, better, module, what it should move).
PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    ("client.send_us", "us", "lower", "serve.client", "latency_p50_ms on serve"),
    ("client.redeliveries", "count", "lower", "serve.client", "latency_p50_ms on serve"),
    ("ingest.decode_us", "us", "lower", "serve.protocol+serve.ingest", "latency_p50_ms, intervals_per_s on serve"),
    ("ingest.lines", "count", "lower", "serve.ingest", "latency_p50_ms, intervals_per_s on serve"),
    ("ingest.errors", "count", "lower", "serve.ingest", "latency_p50_ms, intervals_per_s on serve"),
    ("manager.submit_us", "us", "lower", "serve.manager", "latency_tail_ms, intervals_per_s on serve"),
    ("manager.retry_frac", "ratio", "lower", "serve.manager", "latency_tail_ms, intervals_per_s on serve"),
    ("manager.queue_wait_p50_ms", "ms", "lower", "serve.manager", "latency_tail_ms, intervals_per_s on serve"),
    ("manager.queue_wait_p99_ms", "ms", "lower", "serve.manager", "latency_tail_ms, intervals_per_s on serve"),
    ("ipc.put_us", "us", "lower", "serve.manager (fork IPC)", "intervals_per_s on serve"),
    ("shard.process_p50_us", "us", "lower", "serve.shard", "intervals_per_s on serve"),
    ("shard.process_p99_us", "us", "lower", "serve.shard", "intervals_per_s on serve"),
    ("shard.busy_frac.fx8320", "ratio", "higher", "serve.shard", "intervals_per_s on serve"),
    ("shard.busy_frac.phenom", "ratio", "higher", "serve.shard", "intervals_per_s on serve"),
    ("shard.wire_us", "us", "lower", "serve.shard", "intervals_per_s on serve"),
    ("filter.estimate_us", "us", "lower", "faults.filtering", "intervals_per_s on serve"),
    ("filter.ingest_many_ms", "ms", "lower", "faults.filtering", "intervals_per_s on fleet"),
    ("filter.bad_frac", "ratio", "lower", "faults.filtering", "intervals_per_s on serve and fleet"),
    ("capper.decide_us", "us", "lower", "dvfs.power_capping", "intervals_per_s on serve, latency_p50_ms on fleet; not explore"),
    ("capper.share", "ratio", "lower", "dvfs.power_capping", "intervals_per_s on serve, latency_p50_ms on fleet; not explore"),
    ("pricer.price_us", "us", "lower", "core (MixedPricer)", "capper rows on serve and fleet"),
    ("pricer.prices_per_decide", "count", "lower", "core (MixedPricer)", "capper rows on serve and fleet"),
    ("batch.predict_ms", "ms", "lower", "core.batch / fleet.simulator", "intervals_per_s on serve, latency_p50_ms on fleet"),
    ("ppep.analyze_us", "us", "lower", "core (PPEP.analyze)", "latency_p50_ms on explore"),
    ("alloc.allocate_us", "us", "lower", "fleet.cluster_cap", "latency_p50_ms on fleet"),
    ("fleet.step_ms", "ms", "lower", "fleet.engine + hardware", "latency_p50_ms on fleet; not serve or explore"),
    ("engine.batched_frac", "ratio", "higher", "fleet.engine", "latency_p50_ms on fleet; not serve or explore"),
    ("events.emit_us", "us", "lower", "obs.events", "intervals_per_s on serve and fleet"),
    ("events.flush_ms", "ms", "lower", "obs.events", "intervals_per_s on serve"),
    ("ledger.record_us", "us", "lower", "obs.ledger", "intervals_per_s on serve"),
    ("ledger.record_many_ms", "ms", "lower", "obs.ledger", "intervals_per_s on fleet"),
    ("checkpoint.save_ms", "ms", "lower", "serve.checkpoint", "intervals_per_s, peak_rss_mb on serve"),
    ("checkpoint.bytes", "bytes", "lower", "serve.checkpoint", "intervals_per_s, peak_rss_mb on serve"),
    ("checkpoint.saves", "count", "lower", "serve.checkpoint", "intervals_per_s on serve"),
    ("registry.train_s", "s", "lower", "fleet.registry (explore: fold fits)", "setup_s everywhere"),
    ("cluster.cap_violation_frac", "ratio", "lower", "fleet.cluster_cap", "power_err_pct on fleet"),
    ("unaccounted_frac", "ratio", "lower", "(trace)", "-"),
    ("trace_overhead_pct", "%", "lower", "(trace)", "-"),
] + [
    ("self_us.{}".format(layer), "us/interval", "lower", "(self time)", "-")
    for layer in LAYERS
]

_SERVE_ROOTS = ("ingest.decode_line", "ingest.parse", "manager.submit")
_WORKER_BUSY = ("shard.wire", "shard.process", "checkpoint.save", "events.flush", "ipc.put")


def _durations(spans, name: str, scale: float) -> List[float]:
    return [(s[END] - s[START]) / scale for s in spans if s[NAME] == name]


def _ingest_decode_us(spans) -> List[float]:
    """decode_line + parse_telemetry per line, paired on (node, interval)."""
    decode = {}
    for s in spans:
        if s[NAME] == "ingest.decode_line" and s[KEY] is not None:
            decode[tuple(s[KEY])] = s[END] - s[START]
    out = []
    for s in spans:
        if s[NAME] == "ingest.parse" and s[KEY] is not None:
            out.append((s[END] - s[START] + decode.get(tuple(s[KEY]), 0)) / 1e3)
    return out


def layer_metrics(
    dumps: Iterable[dict],
    decided: int,
    lanes: Optional[Dict[str, List[Tuple[int, int]]]] = None,
    extras: Optional[Dict[str, float]] = None,
) -> MetricSet:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``dumps`` are the per-process span tables (``role``, ``spans``,
    ``counts``); ``decided`` is the node-intervals the run decided;
    ``lanes`` maps a role to the measured windows ``(start_ns, end_ns)``
    of that process (roles named ``worker:<sku>`` default to the window
    their own shard spans cover); ``extras`` supplies metrics measured
    outside the spans (client redeliveries, ingest line and error
    counters, training time, cap violations, tracing overhead).
    """
    dumps = list(dumps)
    lanes = dict(lanes or {})
    extras = dict(extras or {})
    spans = [s for d in dumps for s in d["spans"]]
    counts: Dict[str, float] = defaultdict(float)
    for d in dumps:
        for k, v in d["counts"].items():
            counts[k] += v
    by_name: Dict[str, list] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    total_ns = {name: sum(s[END] - s[START] for s in group) for name, group in by_name.items()}

    out = MetricSet()
    out.add_timing("client.send_us", _durations(spans, "client.send", 1e3), "us")
    out.add("client.redeliveries", extras.get("client.redeliveries", 0), "count")
    out.add_timing("ingest.decode_us", _ingest_decode_us(spans), "us")
    # Line and protocol-error counts are the ingest layer's own counters
    # (the service report), not span arithmetic: a line that decodes but
    # fails to parse still leaves a parse span.
    out.add("ingest.lines", extras.get("ingest.lines", 0), "count")
    out.add("ingest.errors", extras.get("ingest.errors", 0), "count")
    out.add_timing("manager.submit_us", _durations(spans, "manager.submit", 1e3), "us")
    submits = by_name["manager.submit"]
    out.add_ratio(
        "manager.retry_frac",
        sum(1 for s in submits if s[NOTE] in ("retry", "shed")), len(submits),
    )
    accepted = [s for s in submits if s[NOTE] == "accepted"]
    waits = [(down[START] - up[END]) / 1e6 for up, down in join_on_key(accepted, by_name["shard.process"])]
    out.add_timing(
        "manager.queue_wait_p50_ms", waits, "ms",
        tail_name="manager.queue_wait_p99_ms", fixed_tail=99.0,
    )
    ingest_puts = [
        (s[END] - s[START]) / 1e3 for d in dumps if d["role"] == "ingest"
        for s in d["spans"] if s[NAME] == "ipc.put"
    ]
    out.add_timing("ipc.put_us", ingest_puts, "us")
    out.add_timing(
        "shard.process_p50_us", _durations(spans, "shard.process", 1e3), "us",
        tail_name="shard.process_p99_us", fixed_tail=99.0,
    )

    for sku in ("fx8320", "phenom"):
        role = "worker:{}".format(sku)
        worker = [s for d in dumps if d["role"] == role for s in d["spans"]]
        shard_spans = [s for s in worker if s[NAME] in ("shard.wire", "shard.process")]
        busy = 0.0
        if shard_spans:
            window = (min(s[START] for s in shard_spans), max(s[END] for s in shard_spans))
            lanes.setdefault(role, [window])
            length = window[1] - window[0]
            roots = [s for s in worker if s[PARENT] is None]
            busy = covered_ns([s for s in roots if s[NAME] in _WORKER_BUSY], window) / length
        out.add("shard.busy_frac.{}".format(sku), busy, "ratio")
    out.add_timing("shard.wire_us", _durations(spans, "shard.wire", 1e3), "us")
    out.add_timing("filter.estimate_us", _durations(spans, "filter.estimate", 1e3), "us")
    out.add_timing("filter.ingest_many_ms", _durations(spans, "filter.ingest_many", 1e6), "ms")
    out.add_ratio("filter.bad_frac", counts["filter.bad"], counts["filter.verdicts"])
    out.add_timing("capper.decide_us", _durations(spans, "capper.decide", 1e3), "us")
    # The capper's share of the work it sits inside: the shard's
    # per-interval processing (serve) or the cluster round (fleet).
    host = total_ns.get("shard.process", 0) + total_ns.get("cluster.round", 0)
    out.add_ratio("capper.share", total_ns.get("capper.decide", 0), host)
    out.add_timing("pricer.price_us", _durations(spans, "pricer.price", 1e3), "us")
    out.add_ratio(
        "pricer.prices_per_decide", len(by_name["pricer.price"]), len(by_name["capper.decide"]), "count",
    )
    out.add_timing("batch.predict_ms", _durations(spans, "batch.predict", 1e6), "ms")
    out.add_timing("ppep.analyze_us", _durations(spans, "ppep.analyze", 1e3), "us")
    out.add_timing("alloc.allocate_us", _durations(spans, "alloc.allocate", 1e3), "us")
    out.add_timing("fleet.step_ms", _durations(spans, "fleet.step", 1e6), "ms")
    out.add_ratio("engine.batched_frac", counts["engine.batched"], counts["engine.nodes"])
    out.add_timing("events.emit_us", _durations(spans, "events.emit", 1e3), "us")
    out.add_timing("events.flush_ms", _durations(spans, "events.flush", 1e6), "ms")
    out.add_timing("ledger.record_us", _durations(spans, "ledger.record", 1e3), "us")
    out.add_timing("ledger.record_many_ms", _durations(spans, "ledger.record_many", 1e6), "ms")
    out.add_timing("checkpoint.save_ms", _durations(spans, "checkpoint.save", 1e6), "ms")
    saves = len(by_name["checkpoint.save"])
    out.add_ratio("checkpoint.bytes", counts["checkpoint.bytes"], saves, "bytes")
    out.add("checkpoint.saves", saves, "count")
    out.add("registry.train_s", extras.get("registry.train_s", 0.0), "s")
    out.add("cluster.cap_violation_frac", extras.get("cluster.cap_violation_frac", 0.0), "ratio")

    unaccounted_num = unaccounted_den = 0
    for role, windows in lanes.items():
        lane = [s for d in dumps if d["role"] == role for s in d["spans"]]
        for window in windows:
            length = window[1] - window[0]
            unaccounted_num += length - covered_ns(lane, window)
            unaccounted_den += length
    out.add_ratio("unaccounted_frac", unaccounted_num, unaccounted_den)
    out.add("trace_overhead_pct", extras.get("trace_overhead_pct", 0.0), "%")

    selfs: Dict[str, float] = defaultdict(float)
    for name, ns in self_times(spans).items():
        selfs[name.split(".", 1)[0]] += ns
    # Client spans are timed in the generator process; the server-side
    # spans of the same lines ran inside them, so they are subtracted here.
    selfs["client"] -= sum(total_ns.get(name, 0) for name in _SERVE_ROOTS)
    selfs["client"] = max(selfs["client"], 0.0)
    for layer in LAYERS:
        out.add(
            "self_us.{}".format(layer),
            selfs.get(layer, 0.0) / 1e3 / decided if decided else 0.0,
            "us/interval",
        )
    return out

