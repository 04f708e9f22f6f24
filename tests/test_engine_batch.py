"""One session shared by many threads, as threads-mode serving shares it:
ordering, error propagation and thread-safety of ``session.query``."""

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineSession, Method, ProbabilisticDatabase
from repro.core.tid import TupleIndependentDatabase

QUERY_FAMILY = (
    "R(x)",
    "R(x), S(x,y)",
    "S(x,y), T(y)",
    "R(x), S(x,y), T(y)",
    "R(x), S(x,y) | T(u), S(u,v)",
)


def _family_db() -> TupleIndependentDatabase:
    db = TupleIndependentDatabase()
    db.add_fact("R", ("a",), 0.5)
    db.add_fact("R", ("b",), 0.25)
    db.add_fact("S", ("a", "a"), 0.8)
    db.add_fact("S", ("a", "b"), 0.3)
    db.add_fact("S", ("b", "b"), 0.9)
    db.add_fact("T", ("a",), 0.6)
    db.add_fact("T", ("b",), 0.1)
    return db


def _threaded(session, queries, method=Method.AUTO, workers=4):
    """``session.query`` over *queries* on a thread pool, in input order."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda q: session.query(q, method), queries))


def test_batch_preserves_input_order():
    session = EngineSession(_family_db(), seed=3)
    queries = list(QUERY_FAMILY) + list(reversed(QUERY_FAMILY))
    answers = _threaded(session, queries)
    serial = [
        ProbabilisticDatabase(tid=_family_db(), seed=3).probability(q)
        for q in queries
    ]
    assert [a.probability for a in answers] == [a.probability for a in serial]
    assert [a.method for a in answers] == [a.method for a in serial]


def test_batch_raises_on_bad_query():
    session = EngineSession(_family_db())
    with pytest.raises(Exception):
        _threaded(session, ["R(x), S(x,y)", "R(x,"])


# -- hypothesis: thread-safety under generated workloads ----------------------


@st.composite
def workloads(draw):
    """A small random TID plus a query mix with duplicates."""
    domain = ("a", "b", "c")
    facts = []
    for name, arity in (("R", 1), ("S", 2), ("T", 1)):
        rows = draw(
            st.lists(
                st.tuples(
                    st.tuples(*[st.sampled_from(domain)] * arity),
                    st.floats(min_value=0.05, max_value=0.95),
                ),
                min_size=1,
                max_size=5,
                unique_by=lambda row: row[0],
            )
        )
        facts.extend((name, values, round(prob, 3)) for values, prob in rows)
    queries = draw(
        st.lists(st.sampled_from(QUERY_FAMILY), min_size=1, max_size=12)
    )
    return facts, queries


@settings(max_examples=15, deadline=None)
@given(workloads())
def test_threaded_batch_matches_sequential_reference(workload):
    facts, queries = workload
    session = EngineSession(
        TupleIndependentDatabase.from_facts(facts), seed=9, cache_size=64
    )
    answers = _threaded(session, queries, workers=4)
    reference = ProbabilisticDatabase(
        tid=TupleIndependentDatabase.from_facts(facts), seed=9
    )
    for query, answer in zip(queries, answers):
        expected = reference.probability(query)
        assert answer.probability == expected.probability
        assert answer.method == expected.method
    assert len(session.cache) <= 64


@settings(max_examples=10, deadline=None)
@given(workloads())
def test_threaded_batch_is_internally_consistent(workload):
    """Racing duplicates must all observe one value per (query, method)."""
    facts, queries = workload
    session = EngineSession(TupleIndependentDatabase.from_facts(facts), seed=9)
    doubled = queries * 2
    answers = _threaded(session, doubled, workers=8)
    by_query: dict[str, set] = {}
    for query, answer in zip(doubled, answers):
        by_query.setdefault(query, set()).add(answer.probability)
    for query, values in by_query.items():
        assert len(values) == 1, f"divergent answers for {query}: {values}"

