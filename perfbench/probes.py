"""Where the tracer wraps the program: one span per public call.

Each ``install_*`` function wraps the public functions and methods a
workload calls into, layer by layer.  Wrappers are installed on classes
and on the module globals the callers actually look up (``from x
import f`` binds ``f`` in the importing module), and are inherited by
processes forked afterwards.
"""

from __future__ import annotations

import multiprocessing.queues
import os
import re

from perfbench.tracer import Tracer

__all__ = ["install_common", "install_explore", "install_fleet", "install_serve"]

_NODE_RE = re.compile(rb'"node":\s*"([^"]*)"')
_INTERVAL_RE = re.compile(rb'"interval":\s*(\d+)')


def _line_key(line, *_args, **_kwargs):
    """(node, interval) of a raw telemetry line, or None."""
    if not isinstance(line, (bytes, bytearray)):
        return None
    node = _NODE_RE.search(line)
    interval = _INTERVAL_RE.search(line)
    if node is None or interval is None:
        return None
    return (node.group(1).decode("utf-8", "replace"), int(interval.group(1)))


def _event_key(obj, *_args, **_kwargs):
    return (obj.get("node"), obj.get("interval"))


def _count_bad(tracer: Tracer):
    def after(result, *_args, **_kwargs):
        verdicts = result if isinstance(result, list) else [result[1]]
        tracer.counts["filter.verdicts"] += len(verdicts)
        tracer.counts["filter.bad"] += sum(1 for v in verdicts if not v.actionable)
        return None

    return after


def install_common(tracer: Tracer) -> None:
    """Layers every closed-loop workload shares: core, capper, filter, obs."""
    from repro.core.ppep import PPEP, MixedPricer
    from repro.dvfs.power_capping import PPEPPowerCapper
    from repro.faults.filtering import HardenedPPEP
    from repro.obs.events import EventLog
    from repro.obs.ledger import PredictionLedger

    tracer.wrap(PPEPPowerCapper, "decide", "capper.decide")
    tracer.wrap(MixedPricer, "price", "pricer.price")
    tracer.wrap(PPEP, "predict_mixed", "ppep.predict_mixed")
    tracer.wrap(
        HardenedPPEP, "estimate_current", "filter.estimate",
        after=_count_bad(tracer),
    )
    tracer.wrap(EventLog, "emit", "events.emit")
    tracer.wrap(EventLog, "flush", "events.flush")
    tracer.wrap(PredictionLedger, "record", "ledger.record")
    tracer.wrap(PredictionLedger, "record_many", "ledger.record_many")


def install_serve(tracer: Tracer, dump_dir: str) -> None:
    """The serve path, installed in the server process before it forks.

    Shard workers inherit the wrappers through the fork; each worker
    starts with an empty span table and dumps it into ``dump_dir`` when
    its main function returns.
    """
    import repro.serve.ingest as ingest
    import repro.serve.manager as manager
    import repro.serve.shard as shard
    from repro.core.batch import BatchedVFPredictor
    from repro.serve.checkpoint import Checkpointer

    install_common(tracer)
    tracer.wrap(ingest, "decode_line", "ingest.decode_line", key=_line_key)
    tracer.wrap(ingest, "parse_telemetry", "ingest.parse", key=_event_key)
    tracer.wrap(
        manager.ShardManager, "submit", "manager.submit",
        key=lambda _self, event: (event.get("node"), event.get("interval")),
        after=lambda result, *_a, **_k: result.get("status"),
    )
    tracer.wrap(multiprocessing.queues.Queue, "put", "ipc.put")
    tracer.wrap(multiprocessing.queues.Queue, "get", "ipc.get")
    tracer.wrap(shard, "sample_from_wire", "shard.wire")
    tracer.wrap(
        shard.ShardPipeline, "process", "shard.process",
        key=lambda self, node, _sample: (node, self.intervals.get(node)),
    )
    tracer.wrap(shard, "allocate_budget", "alloc.allocate")
    tracer.wrap(BatchedVFPredictor, "predict_samples", "batch.predict")

    def _bytes(_result, checkpointer, *_a, **_k):
        try:
            tracer.counts["checkpoint.bytes"] += os.path.getsize(checkpointer.path)
        except OSError:
            pass
        return None

    tracer.wrap(Checkpointer, "save", "checkpoint.save", after=_bytes)

    worker_main = manager.shard_worker_main

    def traced_worker(config, in_queue, out_queue):
        tracer.reset()
        try:
            worker_main(config, in_queue, out_queue)
        finally:
            tracer.dump(
                os.path.join(dump_dir, "worker-{}.json".format(os.getpid())),
                role="worker:{}".format(config["sku"]),
            )

    tracer.patch(manager, "shard_worker_main", traced_worker)


def install_fleet(tracer: Tracer) -> None:
    """The synchronous cluster loop: round, stepping, filter, allocation."""
    import repro.fleet.cluster_cap as cluster_cap
    from repro.faults.filtering import BatchTelemetryFilter
    from repro.fleet.engine import FleetEngine
    from repro.fleet.simulator import FleetSimulator

    install_common(tracer)
    tracer.wrap(cluster_cap.ClusterPowerManager, "run", "cluster.round")
    tracer.wrap(FleetSimulator, "step", "fleet.step")

    def _batched(_result, engine, *_a, **_k):
        tracer.counts["engine.batched"] += engine.last_batched
        tracer.counts["engine.nodes"] += len(engine.nodes)
        return None

    tracer.wrap(FleetEngine, "step", "fleet.engine_step", after=_batched)
    tracer.wrap(FleetSimulator, "predict", "batch.predict")
    tracer.wrap(
        BatchTelemetryFilter, "ingest_many", "filter.ingest_many",
        after=_count_bad(tracer),
    )
    tracer.wrap(cluster_cap, "allocate_budget", "alloc.allocate")


def install_explore(tracer: Tracer) -> None:
    """The Figure-5 predictor: one span per ``PPEP.analyze``."""
    from repro.core.ppep import PPEP

    tracer.wrap(PPEP, "analyze", "ppep.analyze")
