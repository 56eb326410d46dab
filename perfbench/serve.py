"""``serve``: the production path, wire lines in to applied decisions out.

Closed loop: one generator process holds one lockstep
:class:`~repro.serve.client.ResilientClient` per SKU connection (two
connections), each sending its SKU's pre-encoded lines and waiting for
every answer.  The service runs ``run_service(mode="listen")`` in its
own process with checkpoints and event logs on; its two shard workers
are forked from it.

This is the only workload that exercises the client, protocol/ingest,
manager queue and dedup, fork IPC, checkpoint and event-log layers.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import select
import signal
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench import probes
from perfbench.breakdown import layer_metrics
from perfbench.common import WorkloadResult, make_registry, repeat_setup, scratch_dir
from perfbench.hostspeed import HostSpeed
from perfbench.metrics import percentile, timing
from perfbench.tracer import Tracer, load_dumps

__all__ = ["run"]

SKUS = ("fx8320", "phenom")
NODES_PER_SKU = 4
#: Node-intervals per second the run is sized for: at today's speed on
#: two cores a run measures about ``--seconds``.  Every commit gets the
#: same lines for the same seed and seconds.
NOMINAL_RATE = 600.0
QUEUE_SIZE = 64
CHECKPOINT_EVERY = 128
#: Seconds a service may take to come up, drain or report.
STARTUP_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 120.0
#: Seconds between host-speed calibration slices while the service runs.
CALIBRATE_EVERY_S = 0.1

Line = Tuple[str, int, bytes]


def _config(seed: int, directory: str):
    from repro.serve.service import ServeConfig

    return ServeConfig(
        skus=SKUS,
        nodes_per_sku=NODES_PER_SKU,
        queue_size=QUEUE_SIZE,
        checkpoint_dir=os.path.join(directory, "ckpt"),
        checkpoint_every=CHECKPOINT_EVERY,
        events_dir=os.path.join(directory, "events"),
        base_seed=seed,
    )


def _server_main(registry, config, stdout_fd: int, conn, trace_dir: Optional[str]) -> None:
    """Server process: ``run_service(mode="listen")`` until SIGTERM."""
    from repro.serve.service import run_service

    # run_service announces its bound port on stdout; route that to the
    # benchmark through a pipe so the result line stays the last one.
    sys.stdout = os.fdopen(stdout_fd, "w", buffering=1)
    tracer = None
    if trace_dir is not None:
        tracer = Tracer()
        probes.install_serve(tracer, trace_dir)
    report = run_service(registry, config, mode="listen")
    drained_ns = time.monotonic_ns()
    if tracer is not None:
        tracer.dump(os.path.join(trace_dir, "ingest-{}.json".format(os.getpid())), role="ingest")
    conn.send({
        "report": report,
        "drained_ns": drained_ns,
        "rss_kb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
    })
    conn.close()


class Server:
    """One service instance in a forked process."""

    def __init__(self, registry, config, trace_dir: Optional[str] = None) -> None:
        self.config = config
        ctx = multiprocessing.get_context("fork")
        self._read_fd, write_fd = os.pipe()
        self._conn, child_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_server_main,
            args=(registry, config, write_fd, child_conn, trace_dir),
            name="perfbench-server",
        )
        sys.stdout.flush()  # a forked child must not inherit pending output
        self.process.start()
        os.close(write_fd)
        child_conn.close()
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        text = b""
        while b"\n" not in text:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self._read_fd], [], [], max(remaining, 0))
            if not ready:
                self.kill()
                raise RuntimeError("service did not come up")
            chunk = os.read(self._read_fd, 4096)
            if not chunk:
                raise RuntimeError("service exited before listening")
            text += chunk
        # "listening on HOST:PORT (N shards)"
        address = text.split(b"\n", 1)[0].split()[2].decode()
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def stop(self, terminate: bool = True) -> dict:
        """SIGTERM, wait for the drain, and return the service's report.

        ``terminate=False`` when the SIGTERM was already sent (a second
        one after the service's loop has closed would kill it).
        """
        if terminate:
            os.kill(self.process.pid, signal.SIGTERM)
        try:
            if not self._conn.poll(DRAIN_TIMEOUT_S):
                raise RuntimeError("service did not drain in time")
            return self._conn.recv()
        finally:
            self.process.join(timeout=DRAIN_TIMEOUT_S)
            self.kill()

    def kill(self) -> None:
        """Make sure the process is gone and its pipes are closed."""
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)
        if self._read_fd is not None:
            os.close(self._read_fd)
            self._read_fd = None
        self._conn.close()


def _pin_workers(server: "Server") -> List[Tuple[int, int]]:
    """Pin each shard worker of ``server`` to its own CPU; [(pid, cpu)].

    The two workers are busy throughout a drive, with the ingest and
    generator processes beside them on two CPUs; left to the scheduler,
    where each lands moved throughput by about 20% between identical
    runs.  Pinned, only the ingest and generator processes move.
    Nothing is pinned where the kernel does not list a process's children.
    """
    pid = server.process.pid
    try:
        with open("/proc/{0}/task/{0}/children".format(pid), encoding="ascii") as handle:
            workers = sorted(int(child) for child in handle.read().split())
    except OSError:
        return []
    cpus = sorted(os.sched_getaffinity(0))
    pinned = []
    for i, worker in enumerate(workers):
        cpu = cpus[i % len(cpus)]
        os.sched_setaffinity(worker, {cpu})
        pinned.append((worker, cpu))
    return pinned


def _generator_main(
    host: str, port: int, server_pid: int, lines: Dict[str, List[Line]], seed: int, conn
) -> None:
    """Generator process: one lockstep ResilientClient per SKU, in threads.

    The generator stops the service itself as soon as the last answer is
    in, so the drain clock does not wait on the send records' trip back.
    """
    from repro.serve.client import ResilientClient

    results: Dict[str, dict] = {}

    def drive(index: int, sku: str) -> None:
        sends = []
        error = None
        client = ResilientClient(host, port, seed=seed * 16 + index)
        try:
            for node, interval, line in lines[sku]:
                started = time.monotonic_ns()
                status = client.send_wire(line).get("status")
                sends.append((node, interval, started, time.monotonic_ns(), status))
        except Exception as exc:  # a give-up counts as failed, not a crash
            error = "{}: {}".format(type(exc).__name__, exc)
        finally:
            client.close()
        results[sku] = {"sends": sends, "stats": dict(client.stats), "error": error}

    threads = [
        threading.Thread(target=drive, args=(i, sku), name="client-" + sku)
        for i, sku in enumerate(SKUS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        os.kill(server_pid, signal.SIGTERM)
    conn.send(results)
    conn.close()


def _drive(server: Server, lines: Dict[str, List[Line]], seed: int) -> dict:
    """Send every line through the generator; drain the service."""
    ctx = multiprocessing.get_context("fork")
    conn, child_conn = ctx.Pipe(duplex=False)
    generator = ctx.Process(
        target=_generator_main,
        args=(server.host, server.port, server.process.pid, lines, seed, child_conn),
        name="perfbench-generator",
    )
    sys.stdout.flush()
    generator.start()
    child_conn.close()
    try:
        if not conn.poll(DRAIN_TIMEOUT_S):
            raise RuntimeError("generator did not finish in time")
        clients = conn.recv()
    finally:
        generator.join(timeout=DRAIN_TIMEOUT_S)
        if generator.is_alive():
            generator.kill()
            generator.join(timeout=10.0)
        conn.close()
    final = server.stop(terminate=False)
    return {"clients": clients, **final}


def _generate_lines(registry, config, intervals: int):
    """Pre-encoded telemetry lines per SKU, plus the shard specs."""
    from repro.serve.protocol import telemetry_line
    from repro.serve.service import build_shards

    shards, fleets = build_shards(registry, config)
    lines: Dict[str, List[Line]] = {sku: [] for sku in SKUS}
    for k in range(intervals):
        for sku in SKUS:
            fleet = fleets[sku]
            for node, sample in zip(fleet.nodes, fleet.step()):
                lines[sku].append((node.name, k, telemetry_line(node.name, sku, k, sample)))
    return lines, shards


def _replay(shard, lines: List[Line]) -> List[tuple]:
    """The decision stream of an in-process ShardPipeline fed ``lines``."""
    from repro.obs.events import EventLog
    from repro.serve.protocol import decode_line, parse_telemetry, sample_from_wire
    from repro.serve.shard import ShardPipeline

    events = EventLog()
    pipeline = ShardPipeline(
        sku=shard.sku,
        spec=shard.spec,
        ppep=shard.ppep,
        node_names=shard.node_names,
        budget_w=shard.budget_w,
        policy=shard.policy,
        unhealthy_after=shard.unhealthy_after,
        events=events,
    )
    for node, _interval, line in lines:
        event = parse_telemetry(decode_line(line))
        pipeline.process(node, sample_from_wire(event["sample"], shard.spec))
    return [_decision(json.loads(json.dumps(e))) for e in events.of_type("decision")]


def _replay_child(shard, lines: List[Line], conn) -> None:
    conn.send(_replay(shard, lines))
    conn.close()


def _replay_all(shards, lines: Dict[str, List[Line]]) -> Dict[str, Optional[List[tuple]]]:
    """Replay every shard at once, each in its own forked process."""
    ctx = multiprocessing.get_context("fork")
    jobs = []
    sys.stdout.flush()
    for shard in shards:
        conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_replay_child, args=(shard, lines[shard.sku], child_conn))
        process.start()
        child_conn.close()
        jobs.append((shard.sku, process, conn))
    replayed: Dict[str, Optional[List[tuple]]] = {}
    for sku, process, conn in jobs:
        try:
            replayed[sku] = conn.recv() if conn.poll(DRAIN_TIMEOUT_S) else None
        finally:
            process.join(timeout=DRAIN_TIMEOUT_S)
            if process.is_alive():
                process.kill()
                process.join(timeout=10.0)
            conn.close()
    return replayed


def _decision(event: dict) -> tuple:
    return (
        event["node"], event["interval"], tuple(event["vf_index"]),
        event["delivery_index"], event["quality"],
    )


def _read_stream(events_dir: str, sku: str) -> Tuple[List[tuple], List[dict]]:
    """(decisions, prediction events) the shard wrote to its JSONL."""
    from repro.obs.events import read_events

    decisions, predictions = [], []
    for event in read_events(os.path.join(events_dir, "shard-{}.jsonl".format(sku))):
        if event["type"] == "decision":
            decisions.append(_decision(event))
        elif event["type"] == "prediction":
            predictions.append(event)
    return decisions, predictions


def _summarise(outcome: dict, offered: int) -> dict:
    """Throughput, latencies and losses of one driven run."""
    sends = [s for c in outcome["clients"].values() for s in c["sends"]]
    first_ns = min(s[2] for s in sends) if sends else outcome["drained_ns"]
    report = outcome["report"]
    processed = report["processed"]
    gave_up = [c["error"] for c in outcome["clients"].values() if c["error"]]
    refused = sum(1 for s in sends if s[4] not in ("accepted", "duplicate"))
    return {
        "first_s": first_ns / 1e9,
        "drained_s": outcome["drained_ns"] / 1e9,
        "wall_s": (outcome["drained_ns"] - first_ns) / 1e9,
        "processed": processed,
        "accepted": report["accepted"],
        "failed": max(offered - processed, refused + len(gave_up)),
        "gave_up": gave_up,
        "sends": sends,
        "ack_ms": [(s[3] - s[2]) / 1e6 for s in sends],
        "peak_rss_mb": outcome["rss_kb"] / 1024.0,
        "redeliveries": sum(
            c["stats"].get("retries", 0) + c["stats"].get("sheds", 0) + c["stats"].get("timeouts", 0)
            for c in outcome["clients"].values()
        ),
    }


def run(seed: int, seconds: float, trace: bool, root: str) -> WorkloadResult:
    from repro.serve.service import SKU_SPECS

    result = WorkloadResult()
    intervals = max(4, round(seconds * NOMINAL_RATE / (len(SKUS) * NODES_PER_SKU)))
    offered = intervals * len(SKUS) * NODES_PER_SKU
    with scratch_dir(root, "serve-") as work:
        servers: List[Server] = []
        train_s: List[float] = []

        def setup():
            # Model training on a fresh registry, then service bring-up.
            started = time.perf_counter()
            registry = make_registry()
            for sku in SKUS:
                registry.get(SKU_SPECS[sku])
            train_s.append(time.perf_counter() - started)
            directory = os.path.join(work, "setup{}".format(len(servers)))
            servers.append(Server(registry, _config(seed, directory)))
            return registry

        speed = HostSpeed()
        try:
            setup_s, setup_all, registry = repeat_setup(
                setup, speed, teardown=lambda _registry: servers[-1].stop()
            )
            server = servers[-1]
            # Load generation: fleet simulation and wire encoding, before
            # any clock starts.
            lines, shards = _generate_lines(registry, server.config, intervals)
            gc.collect()  # the generator process forks from here
            pinned = _pin_workers(server)
            # The service and generator run in other processes; this
            # one samples the host speed meanwhile.
            drive_speed = HostSpeed()
            with drive_speed.background(CALIBRATE_EVERY_S):
                outcome = _drive(server, lines, seed)
        finally:
            for s in servers:
                s.kill()
        run_ = _summarise(outcome, offered)
        wall_s = drive_speed.scale_span(run_["first_s"], run_["drained_s"])
        ack_ms = [
            drive_speed.scale((end - start) / 1e6, start / 1e9)
            for _n, _i, start, end, _s in run_["sends"]
        ]

        # Output checks (outside every clock).
        result.check(
            "offered == accepted == processed",
            offered == run_["accepted"] == run_["processed"] and not run_["gave_up"],
            "offered {} accepted {} processed {} {}".format(
                offered, run_["accepted"], run_["processed"], run_["gave_up"] or ""
            ),
        )
        events_dir = server.config.events_dir
        predictions = []
        replay_ok = True
        replayed = _replay_all(shards, lines)
        for shard in shards:
            written, preds = _read_stream(events_dir, shard.sku)
            predictions.extend(preds)
            replay_ok = replay_ok and written == replayed[shard.sku] and len(written) == len(lines[shard.sku])
        result.check("shard decision stream == in-process ShardPipeline replay", replay_ok)

        m = result.metrics
        m.add("setup_s", setup_s, "s", "median of {} set-ups {}".format(
            len(setup_all), ["{:.3f}".format(t) for t in setup_all]))
        m.add(
            "intervals_per_s", run_["processed"] / wall_s, "node-intervals/s",
            "{} intervals processed / {:.3f} s first send -> drained at reference speed "
            "({:.3f} s measured)".format(run_["processed"], wall_s, run_["wall_s"]),
        )
        m.add(
            "latency_p50_ms", percentile(ack_ms, 50.0), "ms",
            "median at reference speed ({:.6g} ms measured); n={}".format(
                percentile(run_["ack_ms"], 50.0), len(ack_ms)),
            alias="ack_p50_ms",
        )
        # The p99 is the retry back-off (sleeps), so it is not scaled.
        tail = timing(run_["ack_ms"], fixed_tail=99.0)
        m.add(
            "latency_tail_ms", tail["tail"], "ms",
            "p{:g} as measured, not scaled to host speed: it is the clients' retry back-off "
            "sleeps; n={}".format(tail["tail_p"], tail["n"]),
            alias="ack_p99_ms",
        )
        m.add("peak_rss_mb", run_["peak_rss_mb"], "MB", "max VmHWM over ingest process and shard workers")
        errors = [abs(p["predicted_power"] - p["measured_power"]) / p["measured_power"] for p in predictions]
        m.add(
            "power_err_pct", 100.0 * sum(errors) / len(errors), "%",
            "mean |predicted - measured| / measured over {} shard ledger rows".format(len(errors)),
        )
        m.add_ratio("failed_frac", run_["failed"], offered)
        result.attempted = offered
        result.failed = run_["failed"]
        result.notes.append("set-up " + speed.describe())
        result.notes.append("drive " + drive_speed.describe())
        result.notes.append("shard workers pinned (pid, cpu): {}".format(pinned or "none (no children list)"))
        result.notes.append(
            "serve: {} SKU shards x {} nodes, {} intervals per node; closed loop, "
            "{} lockstep ResilientClients in one generator process; "
            "ack = ResilientClient.send_wire call until accepted, retries included".format(
                len(SKUS), NODES_PER_SKU, intervals, len(SKUS))
        )

        if trace:
            result.layers = _traced(registry, work, seed, lines, offered, run_, train_s)
    return result


def _traced(registry, work, seed, lines, offered, untraced, train_s):
    """A second, traced service run over the same lines."""
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    server = Server(registry, _config(seed, os.path.join(work, "traced")), trace_dir=trace_dir)
    try:
        _pin_workers(server)
        outcome = _drive(server, lines, seed)
    finally:
        server.kill()
    traced = _summarise(outcome, offered)
    client = Tracer()
    for node, interval, start, end, status in traced["sends"]:
        client.record("client.send", start, end, key=(node, interval), note=status)
    dumps = load_dumps(trace_dir) + [{"role": "client", "spans": client.spans, "counts": {}}]
    untraced_rate = untraced["processed"] / untraced["wall_s"]
    traced_rate = traced["processed"] / traced["wall_s"]
    return layer_metrics(
        dumps,
        decided=traced["processed"],
        extras={
            "client.redeliveries": traced["redeliveries"],
            "ingest.lines": outcome["report"]["ingest"]["lines"],
            "ingest.errors": outcome["report"]["ingest"]["errors"],
            "registry.train_s": statistics.median(train_s),
            "trace_overhead_pct": 100.0 * (untraced_rate / traced_rate - 1.0),
        },
    )
