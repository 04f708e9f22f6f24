"""Cache coherence of `EngineSession` under writes.

A session keys a CQ/UCQ's cached answer, lineage and circuit on the digests
of the relations the query names (plus the explicit domain), and every
other sentence on the whole-database fingerprint. The state machine below
interleaves every kind of write with queries on every exact route and
checks, after each step, that whatever the session serves — cached or not —
equals a fresh, uncached `ProbabilisticDatabase` over a copy of the data.
The plain tests pin the hit/miss behaviour the keys promise.
"""

import math

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import EngineSession, Method, ProbabilisticDatabase
from repro.core.tid import TupleIndependentDatabase
from repro.engine.session import read_set

VALUES = ("a", "b", "c")
PROBABILITIES = (0.2, 0.5, 0.7, 1.0)
ARITY = {"R": 1, "S": 2, "T": 1, "U": 1}

QUERIES = (
    "R(x), S(x,y)",  # safe CQ
    "S(x,y), T(y)",
    "R(x), S(x,y), T(y)",  # H0: #P-hard, grounded
    "R(x), S(x,y) | T(u), S(u,v)",  # UCQ
    "R(x), U(x)",  # names U, which only a later write creates
    "R('a')",
    "forall x. R(x)",  # depends on the active domain
    "forall x. forall y. (S(x,y) -> R(x))",
    "exists x. (R(x) & ~T(x))",  # negation
)
METHODS = (Method.AUTO, Method.SAFE_PLAN, Method.DPLL, Method.LIFTED)
POSTERIOR_QUERIES = ("R(x), S(x,y)", "R(x), S(x,y), T(y)")


def _outcome(compute):
    try:
        return compute(), None
    except Exception as error:  # noqa: BLE001 - the error type is compared
        return None, type(error)


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _assert_same_answer(label, served, fresh):
    (answer, error), (expected, expected_error) = served, fresh
    assert error == expected_error, (label, error, expected_error)
    if error is not None:
        return
    assert answer.method == expected.method, (label, answer.method, expected.method)
    assert answer.exact == expected.exact, label
    # The plan text in `detail` may differ: the cost model ranks join
    # groups by the size of the whole active domain.
    assert _close(answer.probability, expected.probability), (
        label,
        answer.probability,
        expected.probability,
    )


def _assert_same_posteriors(label, served, fresh):
    (reports, error), (expected, expected_error) = served, fresh
    assert error == expected_error, (label, error, expected_error)
    if error is not None:
        return
    assert reports.keys() == expected.keys(), label
    for fact, report in reports.items():
        assert _close(report.posterior, expected[fact].posterior), (label, fact)
        assert _close(report.derivative, expected[fact].derivative), (label, fact)


def _session():
    tid = TupleIndependentDatabase.from_facts(
        [("R", ("a",), 0.5), ("S", ("a", "b"), 0.7), ("T", ("b",), 0.2), ("Audit", ("z",), 1.0)]
    )
    return EngineSession(tid, cache_size=2048, seed=3)


class CacheCoherence(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.session = _session()
        self.history = {}  # (relation, values) -> every probability it held
        self.audit_count = 0
        self.served_ok = set()  # (query, method) pairs the last check answered

    @property
    def tid(self):
        return self.session.tid

    def _remember(self, name, values):
        stored = self.tid.probability_of_fact(name, values)
        self.history.setdefault((name, values), []).append(stored)

    def _values(self, data, name):
        return tuple(data.draw(st.sampled_from(VALUES)) for _ in range(ARITY[name]))

    @rule(data=st.data(), name=st.sampled_from(("R", "S", "T")), p=st.sampled_from(PROBABILITIES))
    def add_fact(self, data, name, p):
        values = self._values(data, name)
        self.session.add_fact(name, values, p)
        self._remember(name, values)

    @rule(data=st.data(), name=st.sampled_from(("R", "S", "T")), p=st.sampled_from(PROBABILITIES))
    def set_fact(self, data, name, p):
        values = self._values(data, name)
        self.tid.set_fact(name, values, p)
        self._remember(name, values)

    @rule(data=st.data())
    def set_fact_back(self, data):
        """Restore a fact to a value it held before: old keys become live again."""
        if not self.history:
            return
        (name, values), seen = data.draw(st.sampled_from(sorted(self.history.items())))
        earlier = data.draw(st.sampled_from(seen))
        if earlier > 0.0:
            self.tid.set_fact(name, values, earlier)
            self._remember(name, values)

    @rule()
    def write_unread_relation(self):
        """Audit gains a new constant: no CQ/UCQ reads Audit, so their cached
        answers must stay hits, while the active domain grows under the
        other sentences."""
        self.audit_count += 1
        self.session.add_fact("Audit", (f"z{self.audit_count}",), 1.0)
        for query, method in sorted(self.served_ok, key=lambda pair: (pair[0], pair[1].value)):
            answer = self.session.query(query, method)
            if read_set(ProbabilisticDatabase.parse_query(query)) is not None:
                assert answer.stats.cache_hit, (query, method)
            else:
                assert not answer.stats.cache_hit, (query, method)

    @rule(data=st.data(), p=st.sampled_from(PROBABILITIES))
    def create_pending_relation(self, data, p):
        """U appears (or grows): `R(x), U(x)` must stop answering from its
        absent-U entry."""
        values = self._values(data, "U")
        self.session.add_fact("U", values, p)
        self._remember("U", values)

    @rule(data=st.data(), name=st.sampled_from(("R", "S", "T")), p=st.sampled_from(PROBABILITIES))
    def direct_relation_add(self, data, name, p):
        values = self._values(data, name)
        self.tid.relations[name].add(values, p)
        self.tid.touch()
        self._remember(name, values)

    @rule(extra=st.sampled_from((None, ("d",), ("d", "e"))))
    def explicit_domain(self, extra):
        if extra is None:
            self.tid.explicit_domain = None
        else:
            active = {v for rel in self.tid.relations.values() for v in rel.active_domain()}
            self.tid.explicit_domain = frozenset(active | set(extra))

    @invariant()
    def session_matches_fresh_engine(self):
        fresh = ProbabilisticDatabase(tid=self.tid.copy(), **self.session.pdb.settings())
        self.served_ok = set()
        for query in QUERIES:
            for method in METHODS:
                served = _outcome(lambda: self.session.query(query, method))
                expected = _outcome(lambda: fresh.probability(query, method))
                _assert_same_answer((query, method.value), served, expected)
                if served[1] is None:
                    self.served_ok.add((query, method))
        for query in POSTERIOR_QUERIES:
            _assert_same_posteriors(
                query,
                _outcome(lambda: self.session.tuple_posteriors(query)),
                _outcome(lambda: fresh.tuple_posteriors(query)),
            )


CacheCoherence.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCacheCoherence = CacheCoherence.TestCase


# -- the hit/miss behaviour the keys promise -------------------------------------


def test_write_to_unread_relation_keeps_cq_answer_cached():
    session = _session()
    cold = session.query("R(x), S(x,y)")
    session.add_fact("Audit", ("new",), 1.0)
    session.add_fact("T", ("c",), 0.4)
    warm = session.query("R(x), S(x,y)")
    assert warm.stats.cache_hit
    assert warm.probability == cold.probability


def test_write_to_read_relation_misses():
    session = _session()
    before = session.query("R(x), S(x,y)")
    session.add_fact("S", ("a", "c"), 0.5)
    after = session.query("R(x), S(x,y)")
    assert not after.stats.cache_hit
    assert after.probability > before.probability


def test_forall_misses_when_an_unread_relation_adds_a_constant():
    session = _session()
    session.add_fact("R", ("b",), 0.9)
    session.add_fact("R", ("z",), 0.8)
    before = session.query("forall x. R(x)")
    assert before.probability > 0.0
    session.add_fact("Audit", ("a7",), 1.0)
    after = session.query("forall x. R(x)")
    assert not after.stats.cache_hit
    assert after.probability == 0.0  # prodb-lint: exact -- R('a7') is absent


def test_creating_a_named_relation_misses():
    session = _session()
    assert session.query("R(x), U(x)").probability == 0.0  # prodb-lint: exact -- no U
    session.add_fact("U", ("a",), 0.5)
    after = session.query("R(x), U(x)")
    assert not after.stats.cache_hit
    assert _close(after.probability, 0.25)


def test_explicit_domain_change_misses_for_cqs():
    session = _session()
    session.query("R(x), S(x,y)")
    session.tid.explicit_domain = frozenset({"a", "b", "c", "z"})
    assert not session.query("R(x), S(x,y)").stats.cache_hit


def test_set_back_to_earlier_value_hits_the_earlier_entry():
    session = _session()
    first = session.query("R(x), S(x,y)")
    session.tid.set_fact("R", ("a",), 0.9)
    assert not session.query("R(x), S(x,y)").stats.cache_hit
    session.tid.set_fact("R", ("a",), 0.5)
    again = session.query("R(x), S(x,y)")
    assert again.stats.cache_hit
    assert again.probability == first.probability


def test_concurrent_safe_plans_share_the_per_relation_scan_memo():
    # Eight threads on two cores, switching as often as the interpreter
    # allows, all scanning R and S through one database's scan memo: every
    # answer must equal the uncached engine's, and the memo must end up
    # holding each relation at its current version.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from repro.plans.vectorized import _encoded_relation
    from repro.workloads.generators import full_tid

    tid = full_tid(5, 12)
    values = tid.domain()
    queries = [f"R(x), S(x,'{v}')" for v in values] + [f"S('{v}',y), T(y)" for v in values]
    reference = ProbabilisticDatabase(tid=tid.copy())
    expected = [reference.probability(q, Method.SAFE_PLAN).probability for q in queries]
    session = EngineSession(tid)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(lambda q: session.query(q, Method.SAFE_PLAN), queries))
    finally:
        sys.setswitchinterval(interval)
    assert [a.probability for a in answers] == expected
    memo = tid._columnar_scan_cache
    for name in ("R", "S", "T"):
        relation, version, encoded = memo[name]
        assert relation is tid.relations[name] and version == relation.version
        assert _encoded_relation(tid, name) is encoded
