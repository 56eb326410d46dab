"""Metric hygiene: one helper that every printed number goes through.

- A timing is summarised as its median plus the highest percentile that
  still has at least :data:`MIN_BEYOND` samples beyond it, with the
  sample count.
- A ratio is kept with its numerator and denominator.
- Every metric name matches :data:`NAME_RE`.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence

__all__ = [
    "MIN_BEYOND",
    "NAME_RE",
    "PERCENTILE_LADDER",
    "MetricSet",
    "check_name",
    "percentile",
    "ratio",
    "samples_beyond",
    "tail_percentile",
    "timing",
]

#: A tail percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Letters, digits, ``_``, ``.`` and ``-``; starts with a letter or digit.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or NAME_RE.fullmatch(name) is None:
        raise ValueError("invalid metric name {!r}".format(name))
    return name


def _rank(p: float, n: int) -> int:
    """1-based nearest-rank index of percentile ``p`` among ``n`` samples."""
    # Rounded first so that, e.g., 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def samples_beyond(p: float, n: int) -> int:
    """How many of ``n`` sorted samples lie strictly above percentile ``p``."""
    return n - _rank(p, n)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100], got {}".format(p))
    ordered = sorted(values)
    return float(ordered[_rank(p, len(ordered)) - 1])


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    ``None`` when even the median has fewer than MIN_BEYOND samples
    beyond it (fewer than about 20 samples).
    """
    for p in PERCENTILE_LADDER:
        if samples_beyond(p, n) >= MIN_BEYOND:
            return p
    return None


def timing(values: Sequence[float], fixed_tail: Optional[float] = None) -> dict:
    """Median, tail percentile and count of a list of durations.

    ``fixed_tail`` pins the tail percentile, so an end-to-end metric
    keeps one definition across runs of the same size; a run too short
    to have MIN_BEYOND samples beyond it falls back to the highest
    supported ladder percentile (``tail_p`` says which was used).
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail_p": None, "tail": 0.0}
    tail_p = fixed_tail
    if fixed_tail is None or samples_beyond(fixed_tail, n) < MIN_BEYOND:
        tail_p = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p) if tail_p is not None else 0.0,
    }


def ratio(numerator: float, denominator: float) -> dict:
    """A ratio with its base (0 when the base is empty)."""
    value = numerator / denominator if denominator else 0.0
    return {"value": value, "num": numerator, "den": denominator}


def _fmt(value: float) -> str:
    return "{:.6g}".format(value)


class MetricSet:
    """Named metrics of one run: values for the JSON, lines for people.

    Each metric has a value and a unit; :meth:`add_timing` and
    :meth:`add_ratio` also keep the sample count or base so the printed
    line shows what the number rests on.
    """

    def __init__(self) -> None:
        self.values: Dict[str, dict] = {}
        self.lines: List[str] = []

    def add(
        self, name: str, value: float, unit: str, note: str = "", alias: str = ""
    ) -> None:
        """Record one metric; ``alias`` names what it stands for here."""
        check_name(name)
        if name in self.values:
            raise ValueError("metric {!r} reported twice".format(name))
        self.values[name] = {"value": float(value), "unit": unit}
        parts = ["[= {}]".format(alias)] if alias else []
        parts += [note] if note else []
        line = "{:<32s} {:>12s} {}".format(name, _fmt(value), unit)
        self.lines.append("  ".join([line] + parts))

    def add_timing(
        self,
        name: str,
        values: Sequence[float],
        unit: str,
        tail_name: Optional[str] = None,
        fixed_tail: Optional[float] = None,
        aliases: Sequence[str] = ("", ""),
    ) -> dict:
        """Report the median as ``name`` (and the tail as ``tail_name``)."""
        summary = timing(values, fixed_tail)
        tail = (
            "p{:g} {} {}".format(summary["tail_p"], _fmt(summary["tail"]), unit)
            if summary["tail_p"] is not None
            else "no tail (n < {})".format(2 * MIN_BEYOND)
        )
        self.add(
            name, summary["p50"], unit,
            "median; {}; n={}".format(tail, summary["n"]), alias=aliases[0],
        )
        if tail_name is not None:
            self.add(
                tail_name, summary["tail"], unit,
                "p{}; n={}".format(
                    "{:g}".format(summary["tail_p"]) if summary["tail_p"] else "- (too few samples)",
                    summary["n"],
                ),
                alias=aliases[1],
            )
        return summary

    def add_ratio(
        self, name: str, numerator: float, denominator: float, unit: str = "ratio"
    ) -> dict:
        r = ratio(numerator, denominator)
        self.add(
            name, r["value"], unit,
            "= {} / {}".format(_fmt(numerator), _fmt(denominator)),
        )
        return r

    def subset(self, names: Sequence[str]) -> Dict[str, dict]:
        """The JSON ``metrics`` object for exactly ``names``."""
        missing = [n for n in names if n not in self.values]
        if missing:
            raise KeyError("metrics not measured: {}".format(missing))
        return {n: self.values[n] for n in names}
