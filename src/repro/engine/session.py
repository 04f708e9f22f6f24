"""`EngineSession`: a memoizing, batch-capable front end to the engine.

The façade in :mod:`repro.core.pdb` recomputes everything on every call —
the right semantics for a library, the wrong ones for a server answering
heavy repeated traffic. A session wraps one
:class:`~repro.core.pdb.ProbabilisticDatabase` and memoizes every
intermediate artifact of evaluation in a single content-addressed LRU
cache (:class:`~repro.engine.cache.LRUCache`):

======================  =====================================================
entry kind              key
======================  =====================================================
parsed query            ``("parse", query_fp)``
grounded lineage        ``("lineage", tid_fp, query_fp)``
compiled circuit        ``("circuit", tid_fp, lineage_fp)``
Boolean answer          ``("answer", tid_fp, query_fp, method, backend)``
per-answer marginals    ``("answers", tid_fp, query_fp·head)``
======================  =====================================================

Answers are cached **per-backend**: the configured extensional backend
(``ProbabilisticDatabase.backend``) is part of the answer key, so a
session that switches between the row and columnar executors keeps their
entries separate.

``tid_fp`` is the database's content hash
(:meth:`~repro.core.tid.TupleIndependentDatabase.fingerprint`): mutating
the database changes the hash, so every entry derived from the old
contents simply stops being addressable — invalidation needs no explicit
protocol, and stale entries age out through LRU eviction. Mutations that
bypass the TID's own methods (e.g. poking ``tid.relations[...]`` directly)
must be announced with ``tid.touch()``.

Cached answers are returned verbatim (bit-identical probabilities, same
derivation detail) with a fresh :class:`~repro.engine.stats.QueryStats`
marking the cache hit; this also makes repeated approximate queries
deterministic within a session, since the first estimate is reused.

:meth:`EngineSession.query_batch` evaluates many queries through
:mod:`concurrent.futures`, sharing the cache across workers and
deduplicating in-flight work: when several workers race on the same
``(tid_fp, query_fp, method)`` key, one computes and the rest wait on its
future. See :mod:`repro.engine.batch` for the executor strategies.
"""

from __future__ import annotations

from concurrent.futures import Future
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
from ..logic.terms import Var
from ..sanitize import (
    RANK_INFLIGHT,
    RankedLock,
    audit_kernel,
    audited_dict,
    sanitize_enabled,
)
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
    max_workers:
        Default worker count for :meth:`query_batch`.
    seed:
        When given, overrides the wrapped database's RNG seed so the
        approximate routes are reproducible.
    backend:
        When given, overrides the wrapped database's extensional backend
        (``"rows"`` / ``"columnar"`` / ``"auto"``). Answers are cached
        per-backend — the configured backend is part of the answer key —
        so switching backends mid-session never serves a stale entry from
        the other executor.
    """

    def __init__(
        self,
        db: Union[ProbabilisticDatabase, TupleIndependentDatabase, None] = None,
        *,
        cache_size: int = 256,
        max_workers: Optional[int] = None,
        seed: Optional[int] = None,
        backend: Optional[str] = None,
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
        if backend is not None:
            self.pdb.backend = backend
        self.max_workers = max_workers
        self.cache = LRUCache(cache_size)
        self.stats = SessionStats()
        self._inflight: dict[tuple, Future] = audited_dict("session.inflight")
        self._inflight_lock = RankedLock(RANK_INFLIGHT, "session.inflight")

    # -- convenience passthroughs ---------------------------------------------

    @property
    def tid(self) -> TupleIndependentDatabase:
        return self.pdb.tid

    def add_fact(self, name: str, values: Iterable, probability: float = 1.0) -> None:
        self.pdb.add_fact(name, values, probability)

    # -- Boolean queries -------------------------------------------------------

    def query(self, query: Query, method: Method = Method.AUTO) -> QueryAnswer:
        """Evaluate a Boolean query, serving repeats from the cache.

        Cache hits return the memoized answer (numerically identical to
        the cold evaluation) with a fresh stats record flagging the hit.
        """
        stats = QueryStats()
        with stats.stage("lookup"):
            tid_fp = self.tid.fingerprint()
            qfp = query_fingerprint(query)
            key = ("answer", tid_fp, qfp, method.value, self.pdb.backend)
            cached = self.cache.get(key)
        if cached is not None:
            return self._serve_hit(cached, stats)
        owner, answer = self._compute_once(
            key, lambda: self._evaluate(query, method, tid_fp, qfp, stats)
        )
        if not owner:
            # Another worker computed this key while we waited on its
            # future: account for it as a (shared) hit.
            return self._serve_hit(answer, stats)
        self.stats.record(answer.stats)
        return answer

    def query_batch(
        self,
        queries: Sequence[Query],
        method: Method = Method.AUTO,
        *,
        executor: str = "thread",
        max_workers: Optional[int] = None,
    ) -> list[QueryAnswer]:
        """Evaluate many Boolean queries, in input order.

        *executor* selects the strategy (see :mod:`repro.engine.batch`):
        ``"thread"`` shares this session's cache across workers and
        deduplicates in-flight work — the right choice for workloads with
        repeats; ``"process"`` sidesteps the GIL for CPU-bound cold
        workloads on multicore machines (answers are merged back into the
        cache on return); ``"serial"`` is the in-line baseline.
        """
        from .batch import run_batch

        return run_batch(
            self,
            list(queries),
            method,
            executor=executor,
            max_workers=max_workers if max_workers is not None else self.max_workers,
        )

    def _serve_hit(self, cached: QueryAnswer, stats: QueryStats) -> QueryAnswer:
        stats.route = cached.method.value
        stats.reason = cached.stats.reason if cached.stats is not None else ""
        stats.cache_hit = True
        self.stats.record(stats)
        return replace(cached, stats=stats)

    def _evaluate(
        self, query: Query, method: Method, tid_fp: str, qfp: str, stats: QueryStats
    ) -> QueryAnswer:
        parsed = self._parse_cached(query, qfp)
        return self.pdb.probability(
            parsed,
            method,
            stats=stats,
            lineage_factory=self._lineage_factory(tid_fp, qfp),
        )

    def _compute_once(
        self, key: tuple, compute: Callable[[], QueryAnswer]
    ) -> tuple[bool, QueryAnswer]:
        """Run *compute* for *key* unless a concurrent call already is.

        Returns ``(owner, answer)``: the owner actually ran the
        computation (and stored it in the cache); non-owners waited on the
        owner's future.
        """
        with self._inflight_lock:
            future = self._inflight.get(key)
            if future is None:
                future = self._inflight[key] = Future()
                owner = True
            else:
                owner = False
        if not owner:
            return False, future.result()
        try:
            answer = compute()
            self.cache.put(key, answer)
            future.set_result(answer)
            return True, answer
        except BaseException as error:
            future.set_exception(error)
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)

    def _parse_cached(self, query: Query, qfp: str) -> object:
        if not isinstance(query, str):
            return query
        key = ("parse", qfp)
        parsed = self.cache.get(key)
        if parsed is None:
            parsed = self.pdb.parse_query(query)
            self.cache.put(key, parsed)
        return parsed

    def _lineage_factory(self, tid_fp: str, qfp: str) -> Callable:
        def factory(parsed: object) -> object:
            key = ("lineage", tid_fp, qfp)
            lineage = self.cache.get(key)
            if lineage is None:
                lineage = self.pdb._lineage(parsed)
                self.cache.put(key, lineage)
            return lineage

        return factory

    # -- non-Boolean queries ---------------------------------------------------

    def answers(
        self,
        query: Query,
        head: Sequence[Union[str, Var]],
        *,
        parallel: bool = False,
        max_workers: Optional[int] = None,
    ) -> dict[tuple, QueryAnswer]:
        """Per-answer marginals of a non-Boolean CQ, memoized as one unit.

        With ``parallel=True`` the per-answer model counts run across a
        thread pool (each answer tuple's lineage is an independent DPLL
        problem); results are identical to the sequential route.
        """
        head_names = tuple(h.name if isinstance(h, Var) else str(h) for h in head)
        stats = QueryStats(route=Method.DPLL.value)
        with stats.stage("lookup"):
            tid_fp = self.tid.fingerprint()
            qfp = query_fingerprint(query, head=head_names)
            key = ("answers", tid_fp, qfp)
            cached = self.cache.get(key)
        if cached is not None:
            stats.cache_hit = True
            self.stats.record(stats)
            return dict(cached)
        if parallel:
            from .batch import parallel_answers

            out = parallel_answers(
                self.pdb,
                query,
                head,
                max_workers=max_workers if max_workers is not None else self.max_workers,
                stats=stats,
            )
        else:
            out = self.pdb.answers(query, head)
            for answer in out.values():
                if answer.stats is not None:
                    stats.stages.update(answer.stats.stages)
                    break
        self.cache.put(key, dict(out))
        self.stats.record(stats)
        return out

    def lineage(self, query: Query) -> object:
        """The grounded lineage of *query*, served from the session cache.

        Used by layers that need to size up a query before choosing a
        route — e.g. the server's :class:`~repro.server.ladder.MethodLadder`
        predicts exact-inference cost from ``lineage.variable_count``
        without paying for grounding twice (the same cache entry feeds the
        subsequent evaluation).
        """
        tid_fp = self.tid.fingerprint()
        qfp = query_fingerprint(query)
        parsed = self._parse_cached(query, qfp)
        return self._lineage_factory(tid_fp, qfp)(parsed)

    # -- circuit-backed analyses ----------------------------------------------

    def _compiled(self, query: Query) -> tuple:
        from ..wmc.dpll import compile_decision_dnnf

        tid_fp = self.tid.fingerprint()
        qfp = query_fingerprint(query)
        parsed = self._parse_cached(query, qfp)
        self.pdb.check_arities(parsed)
        lineage = self._lineage_factory(tid_fp, qfp)(parsed)
        # Key the circuit by the lineage — interned expression plus its
        # variable→fact binding — not the query text: distinct spellings
        # share one compiled decision-DNNF exactly when their groundings
        # agree. The expression id alone would collide across queries,
        # since BVar indices restart at 0 in every per-query pool.
        key = ("circuit", tid_fp, lineage_fingerprint(lineage))
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

        Not needed after ordinary mutations — the fingerprint keys handle
        those — but useful to release memory or after out-of-band changes
        when ``tid.touch()`` was forgotten. Releasing memory really works:
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
