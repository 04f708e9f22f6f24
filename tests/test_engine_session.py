"""Cache correctness for the engine session layer.

Covers the contract of `repro.engine`: warm answers bit-identical to cold,
invalidation through content fingerprints when the TID mutates, LRU
eviction bounds, memoized lineages/circuits, and uniform instrumentation
across routes.
"""

import pytest

from repro import EngineSession, Method, ProbabilisticDatabase
from repro.core.tid import TupleIndependentDatabase
from repro.engine.cache import (
    LRUCache,
    expr_fingerprint,
    lineage_fingerprint,
    query_fingerprint,
)
from repro.workloads.generators import full_tid, random_tid

from conftest import close

QUERY_FAMILY = (
    "R(x)",
    "R(x), S(x,y)",
    "S(x,y), T(y)",
    "R(x), S(x,y), T(y)",
    "R(x), S(x,y) | T(u), S(u,v)",
    "forall x. forall y. (S(x,y) -> R(x))",
)


@pytest.fixture
def session(small_db) -> EngineSession:
    return EngineSession(small_db, seed=11)


# -- LRU cache unit behaviour -------------------------------------------------


def test_lru_eviction_bound():
    cache = LRUCache(maxsize=3)
    for i in range(10):
        cache.put(("k", i), i)
        assert len(cache) <= 3
    assert cache.stats.evictions == 7
    assert cache.keys() == [("k", 7), ("k", 8), ("k", 9)]


def test_lru_recency_refresh_on_get():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a" → "b" becomes LRU
    cache.put("c", 3)
    assert "a" in cache and "c" in cache and "b" not in cache


def test_lru_hit_miss_counters():
    cache = LRUCache(maxsize=4)
    assert cache.get("missing") is None
    cache.put("x", 42)
    assert cache.get("x") == 42
    assert (cache.stats.hits, cache.stats.misses, cache.stats.puts) == (1, 1, 1)


def test_lru_rejects_degenerate_size():
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)


# -- fingerprints -------------------------------------------------------------


def test_tid_fingerprint_changes_on_mutation(small_db):
    before = small_db.fingerprint()
    assert small_db.fingerprint() == before  # stable while unchanged
    small_db.add_fact("R", ("zzz",), 0.5)
    assert small_db.fingerprint() != before


def test_tid_fingerprint_is_content_addressed(small_db):
    copied = small_db.copy()
    assert copied.fingerprint() == small_db.fingerprint()
    assert copied.version == 0  # fresh counter, same content hash


def test_tid_fingerprint_sees_domain_changes(small_db):
    before = small_db.fingerprint()
    small_db.explicit_domain = frozenset(("a", "b", "c"))
    assert small_db.fingerprint() != before


def test_tid_touch_bumps_version(small_db):
    before = small_db.version
    fp = small_db.fingerprint()
    small_db.relations["R"].add(("c",), 0.5)  # out-of-band mutation
    small_db.touch()
    assert small_db.version > before
    assert small_db.fingerprint() != fp


def test_query_fingerprint_normalises_whitespace():
    assert query_fingerprint("R(x), S(x,y)") == query_fingerprint("R(x),  S(x,y)")
    assert query_fingerprint("R(x)") != query_fingerprint("S(x)")
    assert query_fingerprint("R(x)", head=("x",)) != query_fingerprint("R(x)")


# -- warm vs cold correctness -------------------------------------------------


@pytest.mark.parametrize(
    "method",
    [
        Method.AUTO,
        Method.LIFTED,
        Method.SAFE_PLAN,
        Method.DPLL,
        Method.KARP_LUBY,
        Method.MONTE_CARLO,
        Method.BRUTE_FORCE,
    ],
)
def test_warm_answer_bit_identical_to_cold(session, method):
    query = "R(x), S(x,y)"
    cold = session.query(query, method)
    warm = session.query(query, method)
    assert warm.probability == cold.probability  # bit-identical, not close()
    assert warm.method == cold.method
    assert warm.exact == cold.exact
    assert warm.detail == cold.detail
    assert not cold.stats.cache_hit
    assert warm.stats.cache_hit


def test_cached_answers_agree_with_uncached_engine(small_db):
    session = EngineSession(small_db.copy(), seed=5)
    fresh = ProbabilisticDatabase(tid=small_db.copy(), seed=5)
    for query in QUERY_FAMILY:
        cold = session.query(query)
        warm = session.query(query)
        reference = fresh.probability(query)
        assert warm.probability == cold.probability
        assert cold.probability == reference.probability
        assert cold.method == reference.method


def test_cache_hit_does_not_mutate_cached_entry(session):
    query = "R(x), S(x,y)"
    session.query(query)
    warm1 = session.query(query)
    warm2 = session.query(query)
    assert warm1.stats is not warm2.stats  # fresh stats per serve
    cached = session.cache.get(("answer", session.tid.fingerprint(),
                                query_fingerprint(query), Method.AUTO.value,
                                session.pdb.backend))
    assert not cached.stats.cache_hit  # stored entry keeps its cold record


# -- invalidation -------------------------------------------------------------


def test_mutation_invalidates_answers():
    db = TupleIndependentDatabase.from_facts(
        [("R", ("a",), 0.5), ("S", ("a", "b"), 0.7)]
    )
    session = EngineSession(db)
    query = "R(x), S(x,y)"
    before = session.query(query)
    assert session.query(query).stats.cache_hit
    session.add_fact("R", ("c",), 0.9)
    session.add_fact("S", ("c", "c"), 0.9)
    after = session.query(query)
    assert not after.stats.cache_hit
    assert after.probability != before.probability
    reference = ProbabilisticDatabase(tid=session.tid.copy())
    assert close(after.probability, reference.probability(query).probability)


def test_mutation_invalidates_lineage_and_circuit(session):
    query = "R(x), S(x,y), T(y)"
    session.query(query, Method.DPLL)
    posteriors_before = session.tuple_posteriors(query)
    session.add_fact("T", ("c",), 0.4)
    posteriors_after = session.tuple_posteriors(query)
    assert posteriors_before.keys() == posteriors_before.keys()
    # the old keys are unreachable; a fresh compile picked up the new tuple
    assert len(posteriors_after) >= len(posteriors_before)


def test_session_eviction_bound():
    session = EngineSession(full_tid(3, 3), cache_size=4)
    for query in QUERY_FAMILY:
        session.query(query)
    assert len(session.cache) <= 4
    assert session.cache_info().evictions > 0


def test_invalidate_clears_cache(session):
    session.query("R(x), S(x,y)")
    assert len(session.cache) > 0
    session.invalidate()
    assert len(session.cache) == 0
    assert not session.query("R(x), S(x,y)").stats.cache_hit


def test_invalidate_releases_kernel_memory():
    # dropping the cached lineage plus the kernel's memo tables must let
    # the garbage collector reclaim the grounded expressions: the unique
    # table holds them only weakly
    import gc

    from repro.booleans.kernel import DEFAULT_MANAGER

    session = EngineSession(None)
    for i in range(50):
        session.add_fact("T", (f"a{i}", f"b{i}"), 0.5)
        session.add_fact("U", (f"b{i}",), 0.5)
    session.query("T(x,y), U(y)", Method.DPLL)
    gc.collect()
    before = len(DEFAULT_MANAGER.unique)
    session.invalidate()
    gc.collect()
    assert len(DEFAULT_MANAGER.unique) <= before - 50


# -- memoized intermediates ---------------------------------------------------


def test_lineage_shared_between_methods(session):
    query = "R(x), S(x,y), T(y)"  # hard: both routes ground it
    session.query(query, Method.DPLL)
    tid_fp = session.tid.fingerprint()
    key = ("lineage", tid_fp, query_fingerprint(query))
    assert key in session.cache
    hits_before = session.cache.stats.hits
    session.query(query, Method.MONTE_CARLO)  # distinct answer key, same lineage
    assert session.cache.stats.hits > hits_before


def test_circuit_memoized_across_analyses(session):
    query = "R(x), S(x,y)"
    session.tuple_posteriors(query)
    tid_fp = session.tid.fingerprint()
    # circuit entries are keyed by the lineage: expression + fact binding
    lineage = session.cache.get(("lineage", tid_fp, query_fingerprint(query)))
    key = ("circuit", tid_fp, lineage_fingerprint(lineage))
    assert key in session.cache
    hits_before = session.cache.stats.hits
    session.most_probable_world(query)
    assert session.cache.stats.hits > hits_before


def test_circuit_cache_distinguishes_isomorphic_lineages():
    # Regression: R(x) and S(x) both ground to the single literal x0, so
    # their lineage expressions intern to the same kernel node. Keying the
    # circuit cache by the expression alone made the second query return
    # the first query's cached (lineage, circuit) pair — wrong facts and
    # wrong probabilities. The key must pin the variable→fact binding.
    tid = TupleIndependentDatabase()
    tid.add_fact("R", ("a",), 0.3)
    tid.add_fact("S", ("b",), 0.9)
    session = EngineSession(tid)

    r_posteriors = session.tuple_posteriors("R(x)")
    s_posteriors = session.tuple_posteriors("S(x)")
    assert set(r_posteriors) == {("R", ("a",))}
    assert close(r_posteriors[("R", ("a",))].prior, 0.3)
    assert set(s_posteriors) == {("S", ("b",))}
    assert close(s_posteriors[("S", ("b",))].prior, 0.9)

    r_world, r_p = session.most_probable_world("R(x)")
    s_world, s_p = session.most_probable_world("S(x)")
    assert set(r_world) == {("R", ("a",))}
    assert close(r_p, 0.3)
    assert set(s_world) == {("S", ("b",))}
    assert close(s_p, 0.9)


def test_answers_memoized_and_parallel_agrees(small_db):
    session = EngineSession(small_db)
    cold = session.answers("R(x), S(x,y)", ["x"])
    warm = session.answers("R(x), S(x,y)", ["x"])
    assert {k: v.probability for k, v in cold.items()} == {
        k: v.probability for k, v in warm.items()
    }
    parallel = EngineSession(small_db.copy()).answers(
        "R(x), S(x,y)", ["x"], parallel=True
    )
    assert {k: v.probability for k, v in parallel.items()} == {
        k: v.probability for k, v in cold.items()
    }


# -- instrumentation ----------------------------------------------------------


def test_stats_uniform_across_routes(small_db):
    pdb = ProbabilisticDatabase(tid=small_db, seed=1)
    expected_stages = {
        Method.LIFTED: {"parse", "count"},
        Method.SAFE_PLAN: {"parse", "compile", "count"},
        Method.DPLL: {"parse", "lineage", "count"},
        Method.KARP_LUBY: {"parse", "lineage", "compile", "count"},
        Method.MONTE_CARLO: {"parse", "lineage", "count"},
        Method.BRUTE_FORCE: {"parse", "count"},
    }
    for method, stages in expected_stages.items():
        answer = pdb.probability("R(x), S(x,y)", method)
        assert answer.stats is not None
        assert set(answer.stats.stages) == stages, method
        assert answer.stats.route == method.value
        assert answer.stats.total >= 0.0


def test_explain_mentions_cache_and_stages(session):
    text = session.explain("R(x), S(x,y)")
    assert "cache hit    : False" in text
    assert "stage times" in text
    text = session.explain("R(x), S(x,y)")
    assert "cache hit    : True" in text


def test_session_report_counts(session):
    session.query("R(x), S(x,y)")
    session.query("R(x), S(x,y)")
    report = session.report()
    assert "1 hits / 1 misses" in report
    assert "safe-plan" in report
    assert session.stats.hit_rate == 0.5  # prodb-lint: exact


# -- reproducible approximation (seed threading) ------------------------------


def test_karp_luby_reproducible_with_seed(dense_db):
    a = ProbabilisticDatabase(tid=dense_db.copy(), seed=42)
    b = ProbabilisticDatabase(tid=dense_db.copy(), seed=42)
    query = "R(x), S(x,y), T(y)"
    assert (
        a.probability(query, Method.KARP_LUBY).probability
        == b.probability(query, Method.KARP_LUBY).probability
    )
    assert (
        a.probability(query, Method.MONTE_CARLO).probability
        == b.probability(query, Method.MONTE_CARLO).probability
    )
    # repeated calls on one database are reproducible too
    assert (
        a.probability(query, Method.KARP_LUBY).probability
        == a.probability(query, Method.KARP_LUBY).probability
    )


def test_session_seed_override(dense_db):
    session = EngineSession(dense_db, seed=7)
    assert session.pdb.seed == 7


def test_session_rejects_unknown_db_type():
    with pytest.raises(TypeError):
        EngineSession(db="not a database")
