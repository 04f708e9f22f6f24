"""The arithmetic behind the reported numbers.

Kept free of ``repro`` imports so ``compare.py``, ``calibrate.py`` and the
harness tests can use it without the engine on the path.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100), linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly beyond the *q*-th percentile."""
    return count - math.ceil(count * q / 100.0)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (the driver's spread)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def replicate_spread(values: Sequence[float], size: int) -> float:
    """How widely one run's replicates spread: inter-quartile range ÷ median
    (as in ``iqr_share``; of three replicates that is their range) of the
    means of consecutive groups of *size* values. An incomplete last group
    is dropped.

    Library rounds and set-ups take the CPUs in turn, so only a group of one
    per CPU replicates the measurement; the spread of the single values would
    mostly show how far apart the CPUs' speeds are.
    """
    return iqr_share(
        [sum(values[i : i + size]) / size for i in range(0, len(values) - size + 1, size)]
    )


def self_times(spans: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of that interval its
    direct children cover (children are clipped to the parent and merged
    where they overlap, so concurrent children are not subtracted twice).
    """
    spans = list(spans)
    children: Dict[object, List[Mapping[str, object]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(span)
    totals: Dict[str, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])  # type: ignore[arg-type]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(float(child["start"]), cursor)  # type: ignore[arg-type]
            hi = min(float(child["end"]), end)  # type: ignore[arg-type]
            if hi > lo:
                covered += hi - lo
                cursor = hi
        name = str(span["name"])
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
