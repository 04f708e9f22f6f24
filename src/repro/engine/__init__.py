"""The session layer: content-addressed caching and instrumentation.

``repro.engine`` wraps the single-query façade of :mod:`repro.core.pdb`
with the machinery a server needs under heavy repeated traffic:

* :class:`EngineSession` — memoizes parsed queries, lineages, compiled
  circuits and final answers in one content-addressed LRU cache keyed by
  ``(read_key, query_fingerprint, method)``, where ``read_key`` hashes the
  relations a CQ/UCQ names (it is domain-independent) and the whole
  database for any other sentence; a write changes the digest of the
  relation it touches, so exactly the entries that read it become
  unreachable, without any explicit invalidation protocol;
* :mod:`repro.engine.stats` — per-query stage timings and per-session
  aggregate counters, surfaced through ``QueryAnswer.stats``, ``explain()``
  and the ``--stats`` CLI flag.

Only the dependency-free submodules (:mod:`~repro.engine.stats`,
:mod:`~repro.engine.cache`) are imported eagerly here; ``EngineSession``
is loaded on first attribute access because :mod:`repro.core.pdb` imports
this package for :class:`~repro.engine.stats.QueryStats` while the session
module imports ``core.pdb`` back.
"""

from __future__ import annotations

from .cache import CacheStats, LRUCache, query_fingerprint, tid_fingerprint
from .stats import OperatorProfile, QueryStats, SessionStats

__all__ = [
    "CacheStats",
    "LRUCache",
    "query_fingerprint",
    "tid_fingerprint",
    "OperatorProfile",
    "QueryStats",
    "SessionStats",
    "EngineSession",
]

_LAZY = {"EngineSession"}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        from . import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAZY)
