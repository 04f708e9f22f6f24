"""Executor strategies for :meth:`EngineSession.query_batch`.

Three strategies, picked per workload:

* ``"serial"`` — evaluate in-line, one query at a time (baseline; still
  cache-aware, since it goes through ``session.query``);
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor` whose
  workers share the session's LRU cache and in-flight deduplication. Under
  the GIL threads don't speed up a single cold CPU-bound count, but for
  the traffic this layer targets — many queries with repeats — the shared
  cache means each distinct ``(database, query, method)`` is computed once
  no matter how many times it appears, and I/O-ish stages overlap;
* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor` for
  genuinely parallel cold workloads on multicore machines. Each worker
  process rebuilds the database once (pool initializer), evaluates its
  share, and the parent merges the answers back into the session cache so
  subsequent queries hit warm. Queries must be picklable (strings always
  are); per-worker caches are not shared *during* the batch.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..core.pdb import Method, ProbabilisticDatabase, Query, QueryAnswer
from ..core.tid import TupleIndependentDatabase
from ..logic.terms import Var
from ..wmc.dpll import DPLLCounter
from .cache import query_fingerprint
from .stats import QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import EngineSession


def default_workers(requested: Optional[int], task_count: int) -> int:
    if requested is not None:
        return max(1, requested)
    return max(1, min(task_count, (os.cpu_count() or 1) * 4, 32))


def run_batch(
    session: "EngineSession",
    queries: list[Query],
    method: Method,
    *,
    executor: str = "thread",
    max_workers: Optional[int] = None,
) -> list[QueryAnswer]:
    """Evaluate *queries* with the chosen strategy, preserving input order."""
    session.stats.record_batch()
    if not queries:
        return []
    if executor == "serial":
        return [session.query(q, method) for q in queries]
    if executor == "thread":
        workers = default_workers(max_workers, len(queries))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda q: session.query(q, method), queries))
    if executor == "process":
        return _run_process_batch(session, queries, method, max_workers)
    raise ValueError(
        f"unknown executor {executor!r}; choose 'serial', 'thread' or 'process'"
    )


# -- process pool ------------------------------------------------------------
#
# The worker database is rebuilt once per process by the pool initializer
# and stashed in a module global — the standard concurrent.futures idiom
# for a read-only shared resource.

_WORKER_PDB: Optional[ProbabilisticDatabase] = None


def _init_worker(facts: list, domain: Optional[tuple], options: dict) -> None:
    global _WORKER_PDB
    tid = TupleIndependentDatabase.from_facts(facts, domain)
    _WORKER_PDB = ProbabilisticDatabase(tid=tid, **options)


def _eval_in_worker(item: tuple[str, str]) -> QueryAnswer:
    query, method_value = item
    assert _WORKER_PDB is not None, "process pool initializer did not run"
    return _WORKER_PDB.probability(query, Method(method_value))


def mp_context() -> multiprocessing.context.BaseContext:
    """The start method every process fan-out in the package shares.

    Never ``fork``: by the time a batch or the server pool spawns workers
    the parent may already run an asyncio loop, thread pools and ranked
    locks, and forking duplicates held locks and live threads into the
    child mid-state. ``forkserver`` keeps child startup cheap (the server
    process imports the package once, before any threads exist) and
    ``spawn`` is the portable fallback.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


def _run_process_batch(
    session: "EngineSession",
    queries: list[Query],
    method: Method,
    max_workers: Optional[int],
) -> list[QueryAnswer]:
    pdb = session.pdb
    facts = list(pdb.tid.facts())
    domain = pdb.tid.explicit_domain
    options = {
        "exact_lineage_limit": pdb.exact_lineage_limit,
        "mc_epsilon": pdb.mc_epsilon,
        "mc_delta": pdb.mc_delta,
        "seed": pdb.seed,
        "backend": pdb.backend,
    }
    workers = default_workers(
        max_workers if max_workers is not None else os.cpu_count(), len(queries)
    )
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context(),
        initializer=_init_worker,
        initargs=(facts, domain, options),
    ) as pool:
        answers = list(pool.map(_eval_in_worker, [(q, method.value) for q in queries]))
    # Merge results into the parent's cache so follow-up traffic hits warm.
    tid_fp = pdb.tid.fingerprint()
    for query, answer in zip(queries, answers):
        key = ("answer", tid_fp, query_fingerprint(query), method.value, pdb.backend)
        if key not in session.cache:
            session.cache.put(key, answer)
        session.stats.record(answer.stats)
    return answers


# -- parallel per-answer marginals -------------------------------------------


def parallel_answers(
    pdb: ProbabilisticDatabase,
    query: Query,
    head: Sequence[Union[str, Var]],
    *,
    max_workers: Optional[int] = None,
    stats: Optional[QueryStats] = None,
) -> dict[tuple, QueryAnswer]:
    """Per-answer marginals with the model counts fanned across threads.

    Mirrors :meth:`ProbabilisticDatabase.answers`: one shared grounding
    pass, then each answer tuple's lineage is an independent weighted model
    count, evaluated here by a pool of workers (one fresh
    :class:`DPLLCounter` per answer). Results are identical to the
    sequential route; only the schedule differs.
    """
    from ..lineage.build import answer_lineages
    from ..logic.cq import parse_cq

    stats = stats if stats is not None else QueryStats()
    with stats.stage("parse"):
        parsed = parse_cq(query) if isinstance(query, str) else query
    pdb.check_arities(parsed)
    head_vars = tuple(Var(h) if isinstance(h, str) else h for h in head)
    missing = set(head_vars) - parsed.variables
    if missing:
        names = ", ".join(sorted(v.name for v in missing))
        raise ValueError(f"head variables not in query: {names}")
    with stats.stage("lineage"):
        lineages, pool = answer_lineages(parsed, head_vars, pdb.tid)
    probabilities = pool.probability_map()
    items = sorted(lineages.items(), key=lambda kv: repr(kv[0]))

    def count_one(item: tuple) -> tuple:
        values, expr = item
        result = DPLLCounter().run(expr, probabilities)
        return values, QueryAnswer(
            result.probability,
            Method.DPLL,
            exact=True,
            detail="per-answer lineage",
            stats=stats,
        )

    workers = default_workers(max_workers, len(items))
    with stats.stage("count"):
        with ThreadPoolExecutor(max_workers=workers) as executor:
            return dict(executor.map(count_one, items))
