"""Observability: process-wide counters, gauges and latency histograms.

``repro.obs`` is the metrics subsystem the serving stack publishes into:
the query server (:mod:`repro.server`) and the engine session
(:mod:`repro.engine.session`) both record their traffic here, and the
server's ``/metrics`` endpoint and ``prodb serve --stats`` log line render
it. See :mod:`repro.obs.metrics` for the metric kinds and the registry,
and ``docs/api.md`` for the metric catalog.
"""

from __future__ import annotations

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]
