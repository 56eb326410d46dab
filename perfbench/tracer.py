"""In-memory span tracing from outside the program.

A :class:`Tracer` replaces public functions and methods of the program
with timing wrappers (:meth:`Tracer.wrap`); every call records one span
``(name, start_ns, end_ns, span_id, parent_id, key, note)``.  Spans stay
in memory and are written out once, when the traced process ends
(:meth:`Tracer.dump`).

All span times come from ``time.monotonic_ns``, one system-wide clock on
Linux, so spans recorded in different processes (the ingest process and
the forked shard workers) can be joined on their ``key`` and compared
directly.  The parent of a span is the innermost wrapped call still
running in the same process; the wrapped program code is
single-threaded in every traced process.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "covered_ns", "join_on_key", "load_dumps", "self_times"]

#: (name, start_ns, end_ns, span_id, parent_id, key, note); ids are
#: "pid:n" strings so spans from every process can share one table.
Span = Tuple[str, int, int, str, Optional[str], Optional[list], Optional[str]]

NAME, START, END, SID, PARENT, KEY, NOTE = range(7)


class Tracer:
    """Span recorder plus the wrappers it installed."""

    def __init__(self, clock: Callable[[], int] = time.monotonic_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._next = 0
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans and counts (a forked child starts empty)."""
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._next = 0
        self._pid = os.getpid()

    def _new_id(self) -> str:
        self._next += 1
        return "{}:{}".format(self._pid, self._next)

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        key: Optional[Sequence] = None,
        note: Optional[str] = None,
    ) -> None:
        """Record a root span timed by the caller (no wrapper involved)."""
        self.spans.append(
            (name, start_ns, end_ns, self._new_id(), None,
             None if key is None else list(key), note)
        )

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        key: Optional[Callable[..., Sequence]] = None,
        after: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``key(*args, **kwargs)`` runs *before* the call (some calls
        advance the counters their key is made of); ``after(result,
        *args, **kwargs)`` runs after a call that returned and may return
        a short note stored on the span (e.g. a response status).  A
        call that raised is still recorded, with the note ``"raised"``.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_key = key(*args, **kwargs) if key is not None else None
            parent = tracer._stack[-1] if tracer._stack else None
            sid = tracer._new_id()
            tracer._stack.append(sid)
            start = tracer.clock()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                if not ok:
                    note = "raised"
                else:
                    note = after(result, *args, **kwargs) if after is not None else None
                tracer.spans.append(
                    (name, start, end, sid, parent,
                     None if span_key is None else list(span_key), note)
                )
            return result

        wrapper.__wrapped__ = original
        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- persistence ---------------------------------------------------------

    def dump(self, path: str, role: str) -> None:
        """Write this process's spans and counts to ``path`` (JSON)."""
        payload = {
            "pid": os.getpid(),
            "role": role,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def load_dumps(directory: str) -> List[dict]:
    """Every dump written into ``directory`` (spans as tuples)."""
    dumps = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(directory, entry), encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["spans"] = [
            tuple(tuple(f) if isinstance(f, list) else f for f in span)
            for span in payload["spans"]
        ]
        dumps.append(payload)
    return dumps


# -- analysis -----------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[str, int]:
    """Total self time per span name, in ns.

    A span's self time is its duration minus the durations of its
    direct children (spans naming it as parent).  Children never
    overlap each other: they ran one after another on the same stack.
    """
    spans = list(spans)
    child_ns: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] is not None:
            child_ns[span[PARENT]] += span[END] - span[START]
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span[NAME]] += span[END] - span[START] - child_ns.get(span[SID], 0)
    return dict(totals)


def covered_ns(spans: Iterable[Span], window: Tuple[int, int]) -> int:
    """Nanoseconds of ``window`` covered by the union of ``spans``."""
    lo, hi = window
    intervals = sorted(
        (max(s[START], lo), min(s[END], hi)) for s in spans
        if s[END] > lo and s[START] < hi
    )
    total = 0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def join_on_key(
    upstream: Iterable[Span], downstream: Iterable[Span]
) -> List[Tuple[Span, Span]]:
    """Pair each downstream span with the last upstream span of its key.

    Used across processes: an accepted ``manager.submit`` span in the
    ingest process and the ``shard.process`` span of the same
    (node, interval) in a shard worker.  Downstream spans without a
    matching upstream key are left out.
    """
    latest: Dict[tuple, Span] = {}
    for span in sorted(upstream, key=lambda s: s[START]):
        if span[KEY] is not None:
            latest[tuple(span[KEY])] = span
    pairs = []
    for span in downstream:
        if span[KEY] is None:
            continue
        match = latest.get(tuple(span[KEY]))
        if match is not None:
            pairs.append((match, span))
    return pairs
