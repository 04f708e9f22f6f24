"""A thread-safe LRU cache with content-addressed keys.

The engine memoizes every intermediate artifact of query evaluation —
parsed queries, lineage expressions, compiled circuits and final answers —
in one bounded LRU map. Keys are tuples
``(kind, read_key, query_fingerprint, ...)`` where both parts are content
hashes. ``read_key`` covers exactly the data the answer depends on: for a
domain-independent CQ/UCQ, the content digests of the relations it names
plus the explicit domain
(:meth:`repro.core.tid.TupleIndependentDatabase.read_fingerprint`); for any
other sentence, whose answer depends on the active domain, the
whole-database :meth:`~repro.core.tid.TupleIndependentDatabase.fingerprint`.
A write changes the digest of the relation it touches, which makes every
entry derived from the old contents of that relation unreachable —
invalidation by construction, with stale entries aging out through normal
LRU eviction. See :mod:`repro.engine.session` for the full key table.

This module imports nothing from the rest of the package — except
:mod:`repro.sanitize`, which itself imports only the standard library — so
that it can be loaded from ``repro.engine``'s package init without touching
``repro.core`` (which itself imports :mod:`repro.engine.stats`).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional

from ..sanitize import RANK_CACHE, RankedLock


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%}), {self.puts} puts, "
            f"{self.evictions} evictions"
        )


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    All operations take an internal re-entrant lock, so the cache may be
    shared freely across the worker threads of threads-mode serving
    (:class:`repro.server.service.ThreadEvaluator`). The lock is a
    :class:`repro.sanitize.RankedLock`: under ``REPRO_SANITIZE=1`` it
    asserts the engine's lock order (cache < stats).
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = RankedLock(RANK_CACHE, "engine.cache", reentrant=True)
        self.stats = CacheStats()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up *key*, refreshing its recency; counts a hit or miss."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.stats.misses += 1
                return default
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            self.stats.puts += 1
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return an entry (no hit/miss accounting)."""
        with self._lock:
            return self._data.pop(key, default)

    def keys(self) -> list:
        """A snapshot of the current keys, LRU first."""
        with self._lock:
            return list(self._data)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test without touching recency or the counters."""
        with self._lock:
            return key in self._data


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def digest(parts: Iterable[str]) -> str:
    """The cache's content-hash primitive, for other content-addressed keys.

    Exposed so sibling layers (e.g. the conditioning subsystem's
    constraint-set fingerprints) address their entries with the same
    domain-separated blake2b construction instead of inventing another.
    """
    return _digest(parts)


def query_fingerprint(query: Any, head: Optional[tuple] = None) -> str:
    """A content hash of a query in any of the façade's accepted forms.

    Strings are hashed after whitespace normalisation, so ``"R(x),S(x,y)"``
    and ``"R(x), S(x,y)"`` share an entry; parsed objects (``Formula``,
    ``ConjunctiveQuery``, ...) hash their type and canonical string form.
    *head* distinguishes non-Boolean uses of the same query text.
    """
    if isinstance(query, str):
        parts = ["str", " ".join(query.split())]
    else:
        parts = ["obj", type(query).__name__, str(query)]
    if head is not None:
        parts.append(repr(tuple(head)))
    return _digest(parts)


def tid_fingerprint(tid: Any) -> str:
    """The database content hash (see ``TupleIndependentDatabase.fingerprint``)."""
    return tid.fingerprint()


def expr_fingerprint(expr: Any) -> str:
    """An O(1) fingerprint of an interned Boolean expression.

    The hash-consing kernel (:mod:`repro.booleans.kernel`) gives every
    structurally-distinct expression a unique node id, so the id alone
    addresses the expression — no re-serialization of the formula tree.
    Node ids are process-local, which is exactly the lifetime of this
    in-memory cache; they are monotonic across kernel resets, so a stale
    fingerprint can never alias a fresh expression.

    The id identifies the *formula*, not its meaning over the database:
    variable indices are pool-local (see :func:`lineage_fingerprint`).
    """
    return f"bexpr:{expr.nid}"


def lineage_fingerprint(lineage: Any) -> str:
    """A content hash of a lineage: the interned expression *plus* its
    variable→fact binding.

    The expression fingerprint alone is ambiguous across queries: ``BVar``
    indices are assigned by a fresh per-query variable pool, so
    structurally identical formulas from different queries (e.g. two
    single-fact Boolean queries both grounding to ``x0``) intern to the
    same node while their variables name different facts with different
    probabilities. Hashing the pool's fact list and weights alongside the
    expression id lets distinct query spellings share an entry exactly
    when their groundings agree — formula, facts and weights alike.
    """
    pool = lineage.pool
    parts = [expr_fingerprint(lineage.expr)]
    for fact, probability in zip(pool.fact_of_var, pool.probabilities):
        parts.append(repr(fact))
        parts.append(float(probability).hex())
    return _digest(parts)
