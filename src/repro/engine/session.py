"""`EngineSession`: a memoizing front end to the engine.

The façade in :mod:`repro.core.pdb` recomputes everything on every call —
the right semantics for a library, the wrong ones for a server answering
heavy repeated traffic. A session wraps one
:class:`~repro.core.pdb.ProbabilisticDatabase` and memoizes every
intermediate artifact of evaluation in a single content-addressed LRU
cache (:class:`~repro.engine.cache.LRUCache`):

======================  =====================================================
entry kind              key
======================  =====================================================
parsed query            ``("parse", query_fp)`` → ``(parsed, read set)``
grounded lineage        ``("lineage", read_key, query_fp)``
compiled circuit        ``("circuit", lineage_fp)``
Boolean answer          ``("answer", read_key, query_fp, method)``
stopped DPLL count      ``("answer", read_key, query_fp, method, (ε, δ))``
per-answer marginals    ``("answers", read_key, query_fp·head)``
======================  =====================================================

``read_key`` addresses exactly the data an answer depends on. The paper's
UCQs are domain-independent: over a TID, P(Q) of a CQ or UCQ is a function
of the relations Q names and nothing else. So for a parsed
:class:`~repro.logic.cq.ConjunctiveQuery` or
:class:`~repro.logic.cq.UnionOfConjunctiveQueries`, ``read_key`` is
:meth:`~repro.core.tid.TupleIndependentDatabase.read_fingerprint` of the
predicates it names (an absent relation hashes as absent) plus the explicit
domain, and a write to any other relation leaves its entries addressable.
Every other sentence (``forall``, negation, ``->``) depends on the active
domain, which any relation can extend, so its ``read_key`` falls back to the
whole-database :meth:`~repro.core.tid.TupleIndependentDatabase.fingerprint`.
The read set is computed once per query text and travels with the cached
parse, so a hit parses nothing. Circuits need no database component at all:
``lineage_fp`` already binds the expression to its facts and weights.

Both hashes are built from per-relation content digests that
``Relation.add`` / ``replace`` keep current in O(1), so a write costs
O(1) and changes exactly the keys of the queries that read the written
relation: their old entries simply stop being addressable — invalidation
needs no explicit protocol, and stale entries age out through LRU
eviction. The whole-database fingerprint is memoized per TID version, so
an out-of-band ``Relation.add`` must still be announced with
``tid.touch()``; a direct write to ``relation.rows`` bypasses the digests
and is not supported (``REPRO_SANITIZE=1`` reports both).

Cached answers are returned verbatim (bit-identical probabilities, same
derivation detail) with a fresh :class:`~repro.engine.stats.QueryStats`
marking the cache hit; this also makes repeated approximate queries
deterministic within a session, since the first estimate is reused.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence, Union

from ..core.pdb import (
    Method,
    ProbabilisticDatabase,
    Query,
    QueryAnswer,
    explain_answer,
)
from ..booleans.kernel import clear_kernel_memos
from ..core.tid import TupleIndependentDatabase
from ..lineage.build import lineage_of
from ..logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..logic.terms import Var
from ..sanitize import audit_kernel, sanitize_enabled
from ..wmc.dpll import DPLLBudgetExceeded
from .cache import LRUCache, lineage_fingerprint, query_fingerprint
from .stats import QueryStats, SessionStats


class EngineSession:
    """A caching session over one probabilistic database.

    Parameters
    ----------
    db:
        A :class:`ProbabilisticDatabase`, a bare
        :class:`TupleIndependentDatabase`, or ``None`` for an empty one.
    cache_size:
        Maximum number of memoized artifacts (answers, lineages, parses,
        circuits share one LRU budget).
    seed:
        When given, overrides the wrapped database's RNG seed so the
        approximate routes are reproducible.
    """

    def __init__(
        self,
        db: Union[ProbabilisticDatabase, TupleIndependentDatabase, None] = None,
        *,
        cache_size: int = 256,
        seed: Optional[int] = None,
    ):
        if db is None:
            self.pdb = ProbabilisticDatabase()
        elif isinstance(db, ProbabilisticDatabase):
            self.pdb = db
        elif isinstance(db, TupleIndependentDatabase):
            self.pdb = ProbabilisticDatabase(tid=db)
        else:
            raise TypeError(
                "EngineSession wraps a ProbabilisticDatabase or a "
                f"TupleIndependentDatabase, not {type(db).__name__}"
            )
        if seed is not None:
            self.pdb.seed = seed
        self.cache = LRUCache(cache_size)
        self.stats = SessionStats()

    # -- convenience passthroughs ---------------------------------------------

    @property
    def tid(self) -> TupleIndependentDatabase:
        return self.pdb.tid

    def add_fact(self, name: str, values: Iterable, probability: float = 1.0) -> None:
        self.pdb.add_fact(name, values, probability)

    # -- Boolean queries -------------------------------------------------------

    def query(
        self,
        query: Query,
        method: Method = Method.AUTO,
        *,
        budget: Optional[tuple[float, float]] = None,
    ) -> QueryAnswer:
        """Evaluate a Boolean query, serving repeats from the cache.

        Cache hits return the memoized answer (numerically identical to
        the cold evaluation) with a fresh stats record flagging the hit.
        A DPLL count stopped by *budget* (see ``ProbabilisticDatabase.probability``)
        is remembered, so a repeat under the same budget and data re-raises.
        """
        stats = QueryStats()
        with stats.stage("lookup"):
            parsed, read_key, qfp = self._keyed(query)
            key = ("answer", read_key, qfp, method.value)
            cached = self.cache.get(key)
        if cached is not None:
            stats.route = cached.method.value
            stats.reason = cached.stats.reason if cached.stats is not None else ""
            stats.cache_hit = True
            self.stats.record(stats)
            return replace(cached, stats=stats)
        if budget is not None and (stopped := self.cache.get((*key, budget))) is not None:
            raise DPLLBudgetExceeded(stopped)
        try:
            answer = self.pdb.probability(
                parsed, method, stats=stats,  # type: ignore[arg-type]
                lineage_factory=self._lineage_factory(read_key, qfp), budget=budget,
            )
        except DPLLBudgetExceeded as error:
            self.cache.put((*key, budget), str(error))
            raise
        self.cache.put(key, answer)
        self.stats.record(answer.stats)
        return answer

    # -- cache keys ------------------------------------------------------------

    def answer_key(self, query: Query, method: Method = Method.AUTO) -> tuple:
        """The cache key of *query*'s Boolean answer under *method*."""
        _, read_key, qfp = self._keyed(query)
        return ("answer", read_key, qfp, method.value)

    def lineage_key(self, query: Query) -> tuple:
        """The cache key of *query*'s grounded lineage."""
        _, read_key, qfp = self._keyed(query)
        return ("lineage", read_key, qfp)

    def _keyed(self, query: Query) -> tuple[object, str, str]:
        """``(parsed, read_key, query_fp)`` for *query* (see the module doc)."""
        qfp = query_fingerprint(query)
        parsed, reads = self._parse_entry(query, qfp)
        read_key = self.tid.fingerprint() if reads is None else self.tid.read_fingerprint(reads)
        return parsed, read_key, qfp

    def _parse_entry(
        self, query: Query, qfp: str
    ) -> tuple[object, Optional[tuple[str, ...]]]:
        if not isinstance(query, str):
            return query, read_set(query)
        key = ("parse", qfp)
        entry = self.cache.get(key)
        if entry is None:
            parsed = self.pdb.parse_query(query)
            entry = (parsed, read_set(parsed))
            self.cache.put(key, entry)
        return entry

    def _parse_cached(self, query: Query, qfp: str) -> object:
        return self._parse_entry(query, qfp)[0]

    def _lineage_factory(self, read_key: str, qfp: str) -> Callable:
        def factory(parsed: object) -> object:
            key = ("lineage", read_key, qfp)
            lineage = self.cache.get(key)
            if lineage is None:
                lineage = lineage_of(parsed, self.pdb.tid)
                self.cache.put(key, lineage)
            return lineage

        return factory

    # -- non-Boolean queries ---------------------------------------------------

    def answers(
        self,
        query: Query,
        head: Sequence[Union[str, Var]],
    ) -> dict[tuple, QueryAnswer]:
        """Per-answer marginals of a non-Boolean CQ, memoized as one unit."""
        head_names = tuple(h.name if isinstance(h, Var) else str(h) for h in head)
        stats = QueryStats(route=Method.DPLL.value)
        with stats.stage("lookup"):
            _, read_key, _ = self._keyed(query)
            key = ("answers", read_key, query_fingerprint(query, head=head_names))
            cached = self.cache.get(key)
        if cached is not None:
            stats.cache_hit = True
            self.stats.record(stats)
            return dict(cached)
        out = self.pdb.answers(query, head)
        for answer in out.values():
            if answer.stats is not None:
                stats.stages.update(answer.stats.stages)
                break
        self.cache.put(key, dict(out))
        self.stats.record(stats)
        return out

    def lineage(self, query: Query) -> object:
        """The grounded lineage of *query*, from the cache entry the routes read."""
        parsed, read_key, qfp = self._keyed(query)
        return self._lineage_factory(read_key, qfp)(parsed)

    # -- circuit-backed analyses ----------------------------------------------

    def _compiled(self, query: Query) -> tuple:
        from ..wmc.dpll import compile_decision_dnnf

        parsed, read_key, qfp = self._keyed(query)
        self.pdb.check_arities(parsed)
        lineage = self._lineage_factory(read_key, qfp)(parsed)
        # Key the circuit by the lineage — interned expression plus its
        # variable→fact binding — not the query text: distinct spellings
        # share one compiled decision-DNNF exactly when their groundings
        # agree. The expression id alone would collide across queries,
        # since BVar indices restart at 0 in every per-query pool.
        key = ("circuit", lineage_fingerprint(lineage))
        entry = self.cache.get(key)
        if entry is None:
            compiled = compile_decision_dnnf(lineage.expr, lineage.probabilities())
            entry = (lineage, compiled)
            self.cache.put(key, entry)
        return entry

    def tuple_posteriors(self, query: Query) -> dict[tuple, object]:
        """As :meth:`ProbabilisticDatabase.tuple_posteriors`, reusing the
        memoized decision-DNNF across calls (and with
        :meth:`most_probable_world`)."""
        from ..kc.differentiate import differentiate

        lineage, compiled = self._compiled(query)
        reports = differentiate(compiled.circuit, lineage.probabilities())
        return {lineage.fact(index): report for index, report in reports.items()}

    def most_probable_world(self, query: Query) -> tuple[dict, float]:
        """As :meth:`ProbabilisticDatabase.most_probable_world`, sharing the
        memoized circuit."""
        from ..kc.mpe import most_probable_model

        lineage, compiled = self._compiled(query)
        explanation = most_probable_model(compiled.circuit, lineage.probabilities())
        world = {
            lineage.fact(index): value
            for index, value in explanation.assignment.items()
        }
        return world, explanation.probability

    # -- introspection ---------------------------------------------------------

    def explain(self, query: Query, method: Method = Method.AUTO) -> str:
        """The uniform ``explain()`` report, cache-aware."""
        return explain_answer(query, self.query(query, method))

    def invalidate(self) -> None:
        """Drop every memoized artifact.

        Not needed after ordinary mutations — the content-digest keys
        handle those — but useful to release memory or after out-of-band
        changes when ``tid.touch()`` was forgotten. Releasing memory really works:
        the Boolean kernel's memo tables (pure caches, shared
        process-wide) are cleared alongside the session cache, and the
        kernel's unique table holds expressions only weakly, so the
        dropped lineages and circuits become collectable.
        """
        self.cache.clear()
        clear_kernel_memos()
        if sanitize_enabled():
            # The kernel just shed its memo strong references: a good
            # moment to cross-check the surviving unique-table entries.
            audit_kernel()

    def cache_info(self) -> object:
        """The cache's hit/miss/eviction counters."""
        return self.cache.stats

    def report(self) -> str:
        """A session-level summary: traffic, hit rates, route mix, timings."""
        return "\n".join(
            [
                self.stats.report(),
                f"cache        : {len(self.cache)}/{self.cache.maxsize} entries, "
                f"{self.cache.stats}",
            ]
        )


def read_set(parsed: object) -> Optional[tuple[str, ...]]:
    """The predicates a domain-independent query reads, sorted; ``None``
    for any other sentence, whose answer depends on the whole database."""
    if isinstance(parsed, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return tuple(sorted(parsed.predicates))
    return None
