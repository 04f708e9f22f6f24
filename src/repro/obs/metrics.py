"""Counters, gauges and log-linear latency histograms with one registry.

The serving layer (:mod:`repro.server`) and the engine session
(:mod:`repro.engine.session`) both publish into a
process-wide :class:`MetricsRegistry`; the server's ``/metrics`` endpoint
and the ``prodb serve --stats`` periodic log line render it.

Three metric kinds:

* :class:`Counter` — a monotonically increasing count (requests served,
  cache hits, load-shed responses);
* :class:`Gauge` — a point-in-time level (in-flight requests, queue depth);
* :class:`Histogram` — a **log-linear** latency histogram: each power-of-two
  decade ``[2^k, 2^(k+1))`` of seconds is split into
  :data:`Histogram.SUBBUCKETS` linear sub-buckets, giving bounded relative
  error (≤ 1/SUBBUCKETS per decade) over ~9 orders of magnitude with a few
  hundred integers and O(1) ``observe``. Quantiles (p50/p95/p99) are read
  off the cumulative bucket counts.

Thread safety: every metric created through a registry shares that
registry's single :class:`~repro.sanitize.RankedLock` (rank
:data:`~repro.sanitize.RANK_METRICS`, the highest in the engine) — one
uncontended lock acquisition per update, and metrics may be published from
code that already holds engine locks without violating the sanitizer's
lock order. Registry locks are never held across calls into other
subsystems.

This module imports only the standard library and :mod:`repro.sanitize`,
so any layer — including :mod:`repro.engine.stats`, which ``core.pdb``
loads — can depend on it without an import cycle.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..sanitize import RANK_METRICS, RankedLock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

Number = Union[int, float]


class Metric:
    """Shared plumbing: a name, a help string, and the owning lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", lock: Optional[RankedLock] = None):
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError(
                f"metric name {name!r} must be non-empty [A-Za-z0-9_]"
            )
        self.name = name
        self.help = help
        self._lock = lock if lock is not None else RankedLock(RANK_METRICS, f"obs.{name}")

    def render(self) -> Iterator[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", lock: Optional[RankedLock] = None):
        super().__init__(name, help, lock)
        self._value = 0.0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> Iterator[str]:
        yield f"# TYPE {self.name} counter"
        yield f"{self.name} {_format_number(self.value)}"


class Gauge(Metric):
    """A level that can move both ways (in-flight requests, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", lock: Optional[RankedLock] = None):
        super().__init__(name, help, lock)
        self._value = 0.0

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: Number = 1) -> None:
        with self._lock:
            self._value += amount

    def sub(self, amount: Number = 1) -> None:
        self.add(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> Iterator[str]:
        yield f"# TYPE {self.name} gauge"
        yield f"{self.name} {_format_number(self.value)}"


class Histogram(Metric):
    """A log-linear histogram of positive observations (seconds).

    Bucket layout: decades ``[2^k, 2^(k+1))`` for ``k`` in
    ``[MIN_EXP, MAX_EXP]``, each split into :data:`SUBBUCKETS` equal-width
    sub-buckets. Observations below ``2^MIN_EXP`` land in the first
    bucket, above ``2^(MAX_EXP+1)`` in the last — the range (≈ 1 µs to
    ≈ 2 min) covers every latency this engine produces.

    ``quantile(q)`` returns the upper edge of the bucket holding the
    q-th observation: an overestimate by at most one sub-bucket width,
    i.e. a relative error bounded by ``1/SUBBUCKETS``.
    """

    kind = "histogram"

    #: Linear subdivisions per power-of-two decade.
    SUBBUCKETS = 8
    #: Smallest tracked decade: 2^-20 s ≈ 1 µs.
    MIN_EXP = -20
    #: Largest tracked decade: 2^7 s = 128 s.
    MAX_EXP = 7

    #: Quantiles rendered by ``render()`` / shown in summaries.
    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, name: str, help: str = "", lock: Optional[RankedLock] = None):
        super().__init__(name, help, lock)
        self._nbuckets = (self.MAX_EXP - self.MIN_EXP + 1) * self.SUBBUCKETS
        self._buckets: List[int] = [0] * self._nbuckets
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def _bucket_index(self, value: float) -> int:
        if value <= 0.0:
            return 0
        exponent = math.floor(math.log2(value))
        if exponent < self.MIN_EXP:
            return 0
        if exponent > self.MAX_EXP:
            return self._nbuckets - 1
        # Position within the decade, linearly subdivided.
        fraction = value / (2.0 ** exponent) - 1.0  # in [0, 1)
        sub = min(int(fraction * self.SUBBUCKETS), self.SUBBUCKETS - 1)
        return (exponent - self.MIN_EXP) * self.SUBBUCKETS + sub

    def _bucket_upper(self, index: int) -> float:
        if index == self._nbuckets - 1:
            # The overflow bucket also holds values beyond 2^(MAX_EXP+1);
            # its edge is unbounded (quantile() clamps to the max seen).
            return math.inf
        decade, sub = divmod(index, self.SUBBUCKETS)
        exponent = decade + self.MIN_EXP
        return (2.0 ** exponent) * (1.0 + (sub + 1) / self.SUBBUCKETS)

    def observe(self, value: Number) -> None:
        value = float(value)
        if value < 0.0:
            raise ValueError(f"histogram {self.name} observations must be >= 0")
        with self._lock:
            self._buckets[self._bucket_index(value)] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """The q-th quantile (0 < q ≤ 1) as a bucket upper edge; 0 if empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = math.ceil(q * self._count)
            seen = 0
            for index, bucket in enumerate(self._buckets):
                seen += bucket
                if seen >= target:
                    return min(self._bucket_upper(index), self._max)
            return self._max

    def summary(self) -> str:
        """One line: ``count=10 p50=1.2ms p95=3.4ms p99=3.4ms``."""
        parts = [f"count={self.count}"]
        for q in self.QUANTILES:
            label = f"p{int(q * 100)}"
            parts.append(f"{label}={self.quantile(q) * 1e3:.2f}ms")
        return " ".join(parts)

    def render(self) -> Iterator[str]:
        yield f"# TYPE {self.name} summary"
        for q in self.QUANTILES:
            yield f'{self.name}{{quantile="{q}"}} {_format_number(self.quantile(q))}'
        yield f"{self.name}_count {self.count}"
        yield f"{self.name}_sum {_format_number(self.sum)}"


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:  # prodb-lint: exact -- integral check
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """A named set of metrics sharing one lock, rendered as one document.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking twice
    for the same name returns the same instance; asking for an existing
    name with a different kind raises ``ValueError``. The registry's single
    lock (rank :data:`~repro.sanitize.RANK_METRICS`) guards both the name
    table and every member metric's series.
    """

    def __init__(self) -> None:
        self._lock = RankedLock(RANK_METRICS, "obs.registry", reentrant=True)
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, kind: type, help: str) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind.__name__.lower()}"
                    )
                return existing
            metric = kind(name, help, lock=self._lock)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get_or_create(name, Counter, help)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get_or_create(name, Gauge, help)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help: str = "") -> Histogram:
        metric = self._get_or_create(name, Histogram, help)
        assert isinstance(metric, Histogram)
        return metric

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{name: value}`` map (histograms expand to count/sum/qXX)."""
        out: Dict[str, float] = {}
        for name in self.names():
            with self._lock:
                metric = self._metrics.get(name)
            if isinstance(metric, (Counter, Gauge)):
                out[name] = metric.value
            elif isinstance(metric, Histogram):
                out[f"{name}_count"] = float(metric.count)
                out[f"{name}_sum"] = metric.sum
                for q in Histogram.QUANTILES:
                    out[f"{name}_p{int(q * 100)}"] = metric.quantile(q)
        return out

    def render_text(self) -> str:
        """The full registry in Prometheus-style text exposition format."""
        lines: List[str] = []
        for name in self.names():
            with self._lock:
                metric = self._metrics.get(name)
            if metric is None:
                continue
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every metric (tests; a fresh server can also start clean)."""
        with self._lock:
            self._metrics.clear()


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (engine + server publish here)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
