"""Per-query and per-session instrumentation.

Every inference route in :mod:`repro.core.pdb` reports where its time went
through a :class:`QueryStats` attached to the returned
:class:`~repro.core.pdb.QueryAnswer`. The stage vocabulary is shared by all
six routes so that ``explain()`` output is uniform:

* ``parse``   — query text → AST;
* ``lineage`` — grounding the query into a Boolean expression;
* ``compile`` — normal-form / plan / circuit construction (DNF for
  Karp–Luby, the safe plan, a decision-DNNF, ...);
* ``count``   — the actual probability computation (lifted rules, DPLL,
  plan execution, sampling, world enumeration).

Routes only fill the stages they execute; a cached answer carries a fresh
stats object with ``cache_hit=True`` and only a ``lookup`` stage.

:class:`SessionStats` aggregates these per-query records across an
:class:`~repro.engine.session.EngineSession`, including when threads-mode
serving shares one session across worker threads (all counters are
updated under a lock). Each record is also published into the
process-wide metrics registry (:mod:`repro.obs`) — ``engine_queries_total``,
cache hit/miss counters and the ``engine_query_seconds`` latency
histogram — so a server scraping ``/metrics`` sees engine traffic without
extra plumbing.

This module imports only :mod:`repro.sanitize` and :mod:`repro.obs`
(both standard-library-only) so that ``core/pdb.py`` can depend on it
without an import cycle.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..obs import get_registry
from ..sanitize import RANK_STATS, RankedLock

#: Canonical stage order for reports; unknown stages are appended after.
STAGE_ORDER = ("lookup", "parse", "lineage", "compile", "count")


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.3f}ms"


@dataclass
class OperatorProfile:
    """One plan operator's traffic: rows in, rows out, wall time.

    Filled by both extensional executors (row and columnar) when the
    safe-plan route runs, one record per scan/join/project in execution
    order, and surfaced through ``QueryAnswer.stats`` and ``explain()``.
    """

    operator: str
    rows_in: int
    rows_out: int
    seconds: float

    def __str__(self) -> str:
        return (
            f"{self.operator}: {self.rows_in} → {self.rows_out} rows "
            f"in {_format_seconds(self.seconds)}"
        )


@dataclass
class QueryStats:
    """Where one query's evaluation spent its time, and how it was served.

    ``counters`` carries route-specific integer counters — notably the
    hash-consing kernel's unique-table size and intern/cofactor-memo
    traffic filled in by the grounded (DPLL) route.
    """

    route: str = ""
    #: Why AUTO took this route; empty when the caller named the method.
    reason: str = ""
    stages: Dict[str, float] = field(default_factory=dict)
    cache_hit: bool = False
    counters: Dict[str, int] = field(default_factory=dict)
    #: Per-operator rows-in/rows-out traffic of the executed plan.
    operators: List[OperatorProfile] = field(default_factory=list)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block and accumulate it under *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, time.perf_counter() - start)

    def add_stage(self, name: str, seconds: float) -> None:
        # A QueryStats record is owned by the single thread executing its
        # query; it is never shared across threads while being written.
        self.stages[name] = self.stages.get(name, 0.0) + seconds  # prodb-lint: lockfree

    @property
    def total(self) -> float:
        """Total instrumented wall-time across all stages."""
        return sum(self.stages.values())

    def _ordered_stages(self) -> list[tuple[str, float]]:
        known = [(s, self.stages[s]) for s in STAGE_ORDER if s in self.stages]
        extra = sorted(
            (s, t) for s, t in self.stages.items() if s not in STAGE_ORDER
        )
        return known + extra

    def summary(self) -> str:
        """One line: ``parse=0.1ms lineage=2.3ms count=8.1ms total=10.5ms``."""
        parts = [
            f"{name}={_format_seconds(seconds)}"
            for name, seconds in self._ordered_stages()
        ]
        parts.append(f"total={_format_seconds(self.total)}")
        return " ".join(parts)

    def counter_summary(self) -> str:
        """One line: ``kernel_unique_nodes=42 cofactor_memo_hits=7 ...``."""
        return " ".join(
            f"{name}={value}" for name, value in sorted(self.counters.items())
        )

    def operator_summary(self) -> list[str]:
        """One line per plan operator: ``scan R(x): 100 → 70 rows in 0.1ms``."""
        return [str(profile) for profile in self.operators]

    def report(self) -> str:
        """Multi-line report in the style of ``ProbabilisticDatabase.explain``."""
        lines = [
            f"route        : {self.route or '?'}",
            *([f"route reason : {self.reason}"] if self.reason else []),
            f"cache hit    : {self.cache_hit}",
            f"stage times  : {self.summary()}",
        ]
        for line in self.operator_summary():
            lines.append(f"  {line}")
        if self.counters:
            lines.append(f"kernel       : {self.counter_summary()}")
        return "\n".join(lines)


@dataclass
class SessionStats:
    """Aggregate counters for one :class:`~repro.engine.session.EngineSession`.

    Thread-safe: ``record`` may be called concurrently from the worker
    threads of threads-mode serving.
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    routes: Dict[str, int] = field(default_factory=dict)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    _lock: RankedLock = field(
        default_factory=lambda: RankedLock(RANK_STATS, "session.stats"),
        repr=False,
        compare=False,
    )

    def record(self, stats: Optional[QueryStats]) -> None:
        """Fold one query's stats into the session aggregates."""
        if stats is None:
            return
        with self._lock:
            self.queries += 1
            if stats.cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            if stats.route:
                self.routes[stats.route] = self.routes.get(stats.route, 0) + 1
            for name, seconds in stats.stages.items():
                self.stage_seconds[name] = (
                    self.stage_seconds.get(name, 0.0) + seconds
                )
            for name, value in stats.counters.items():
                if name == "kernel_unique_nodes":
                    # A table size, not a rate: keep the latest observation.
                    self.counters[name] = value
                else:
                    self.counters[name] = self.counters.get(name, 0) + value
        # Publish into the process-wide registry after releasing our lock
        # (rank STATS < METRICS makes holding it legal too; not holding it
        # keeps the critical section minimal).
        registry = get_registry()
        registry.counter(
            "engine_queries_total", "queries answered by engine sessions"
        ).inc()
        if stats.cache_hit:
            registry.counter(
                "engine_cache_hits_total", "session answers served from cache"
            ).inc()
        else:
            registry.counter(
                "engine_cache_misses_total", "session answers computed cold"
            ).inc()
        registry.histogram(
            "engine_query_seconds", "per-query instrumented wall time"
        ).observe(stats.total)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def report(self) -> str:
        """Multi-line session summary for the CLI and ``EngineSession.report``."""
        with self._lock:
            routes = ", ".join(
                f"{name}×{count}" for name, count in sorted(self.routes.items())
            )
            stages = " ".join(
                f"{name}={_format_seconds(self.stage_seconds[name])}"
                for name in STAGE_ORDER
                if name in self.stage_seconds
            )
            counters = " ".join(
                f"{name}={value}" for name, value in sorted(self.counters.items())
            )
            lines = [
                f"queries      : {self.queries}",
                f"answer cache : {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"({self.hit_rate:.0%} hit rate)",
                f"routes       : {routes or '-'}",
                f"stage totals : {stages or '-'}",
            ]
            if counters:
                lines.append(f"kernel       : {counters}")
        return "\n".join(lines)
