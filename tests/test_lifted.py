"""Unit tests for repro.lifted: the rule engine and the safety decider."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pdb import Method, ProbabilisticDatabase
from repro.core.tid import TupleIndependentDatabase
from repro.lifted.derive import derive
from repro.lifted.engine import (
    LiftedEngine,
    lifted_probability,
    sentence_to_ucq,
)
from repro.lifted.errors import NonLiftableError, UnsupportedQueryError
from repro.lifted.safety import Complexity, cq_is_safe, decide_safety
from repro.logic.cq import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    parse_cq,
    parse_ucq,
)
from repro.logic.formulas import Atom
from repro.logic.parser import parse
from repro.logic.terms import Const, Var
from repro.plans import execute_boolean, execute_boolean_columnar, project_boolean, safe_plan
from repro.workloads.generators import random_tid

from conftest import close


@pytest.fixture
def db():
    return random_tid(21, 3)


def brute(db, sentence_text):
    return db.brute_force_probability(parse(sentence_text))


# -- core rules ------------------------------------------------------------------


def test_single_atom_query(db):
    got = lifted_probability(parse_cq("R(x)"), db)
    assert close(got, brute(db, "exists x. R(x)"))


def test_hierarchical_join(db):
    got = lifted_probability(parse_cq("R(x), S(x,y)"), db)
    assert close(got, brute(db, "exists x. exists y. (R(x) & S(x,y))"))


def test_independent_and(db):
    got = lifted_probability(parse_cq("R(x), T(y)"), db)
    assert close(got, brute(db, "(exists x. R(x)) & (exists y. T(y))"))


def test_independent_or(db):
    got = lifted_probability(parse_ucq("R(x) | T(y)"), db)
    assert close(got, brute(db, "(exists x. R(x)) | (exists y. T(y))"))


def test_qj_needs_inclusion_exclusion(db):
    qj = parse_ucq("R(x), S(x,y) | T(u), S(u,v)")
    engine = LiftedEngine(db, record_trace=True)
    got = engine.probability(qj)
    want = brute(
        db,
        "(exists x. exists y. (R(x) & S(x,y))) | "
        "(exists u. exists v. (T(u) & S(u,v)))",
    )
    assert close(got, want)
    rules = {step.rule for step in engine.trace}
    assert "inclusion-exclusion" in rules
    assert "separator" in rules


def test_h0_cq_not_liftable(db):
    with pytest.raises(NonLiftableError) as excinfo:
        lifted_probability(parse_cq("R(x), S(x,y), T(y)"), db)
    assert excinfo.value.subquery is not None


def test_h1_not_liftable(db):
    with pytest.raises(NonLiftableError):
        lifted_probability(parse_ucq("R(x), S(x,y) | S(u,v), T(v)"), db)


def test_self_join_hierarchical_not_liftable(db):
    # R(x,y), R(y,z): hierarchical but #P-hard (Sec. 4) — engine must not lift it.
    db2 = random_tid(5, 3, schema=(("R", 2),))
    with pytest.raises(NonLiftableError):
        lifted_probability(parse_cq("R(x,y), R(y,z)"), db2)


def test_constants_in_query(db):
    domain = db.domain()
    got = lifted_probability(parse_cq(f"R('{domain[0]}'), S('{domain[0]}', y)"), db)
    want = brute(db, f"R('{domain[0]}') & (exists y. S('{domain[0]}', y))")
    assert close(got, want)


def test_ground_query(db):
    domain = db.domain()
    a = domain[0]
    got = lifted_probability(parse_cq(f"R('{a}'), T('{a}')"), db)
    want = db.probability_of_fact("R", (a,)) * db.probability_of_fact("T", (a,))
    assert close(got, want)


def test_memoization_reuses_results(db):
    engine = LiftedEngine(db)
    q = parse_ucq("R(x), S(x,y) | T(u), S(u,v)")
    first = engine.probability(q)
    second = engine.probability(q)
    assert first == second


def test_qw_liftable_via_conjunction_ie(db):
    # E9 query Q_W = h30 ∨ (h31 ∧ h32): liftable only thanks to the
    # conjunction-side inclusion/exclusion rule; its decision-DNNF is
    # exponential (Theorem 7.1(ii)), measured in benchmarks/bench_e09.
    db2 = random_tid(31, 2, schema=(("R", 1), ("S1", 2), ("S2", 2), ("S3", 2)))
    h30 = parse_cq("R(x), S1(x,y)")
    h31 = parse_cq("S1(x,y), S2(x,y)")
    h32 = parse_cq("S2(x,y), S3(x,y)")
    from repro.logic.cq import UnionOfConjunctiveQueries

    q = UnionOfConjunctiveQueries((h30, h31.conjoin(h32)))
    engine = LiftedEngine(db2, record_trace=True)
    got = engine.probability(q)
    formula = (
        "(exists x. exists y. (R(x) & S1(x,y))) | "
        "((exists x. exists y. (S1(x,y) & S2(x,y))) & "
        "(exists u. exists v. (S2(u,v) & S3(u,v))))"
    )
    assert close(got, db2.brute_force_probability(parse(formula)))
    rules = {step.rule for step in engine.trace}
    assert "inclusion-exclusion-conj" in rules


def test_conjunction_ie_simple_pair(db):
    # P(h1 ∧ h2) for symbol-sharing, variable-disjoint CQ components.
    db2 = random_tid(33, 2, schema=(("S1", 2), ("S2", 2), ("S3", 2)))
    q = parse_cq("S1(x,y), S2(x,y)").conjoin(parse_cq("S2(u,v), S3(u,v)"))
    got = lifted_probability(q, db2)
    want = db2.brute_force_probability(
        parse(
            "(exists x. exists y. (S1(x,y) & S2(x,y))) & "
            "(exists u. exists v. (S2(u,v) & S3(u,v)))"
        )
    )
    assert close(got, want)


# -- sentence-level entry -----------------------------------------------------------


def test_sentence_exists_monotone(db):
    got = lifted_probability(parse("exists x. exists y. (R(x) & S(x,y))"), db)
    assert close(got, brute(db, "exists x. exists y. (R(x) & S(x,y))"))


def test_sentence_forall_via_dual(db):
    sentence = "forall x. forall y. (~S(x,y) | R(x))"
    got = lifted_probability(parse(sentence), db)
    assert close(got, brute(db, sentence))


def test_sentence_forall_h0_not_liftable(db):
    with pytest.raises(NonLiftableError):
        lifted_probability(parse("forall x. forall y. (R(x) | S(x,y) | T(y))"), db)


def test_sentence_rejects_non_unate(db):
    with pytest.raises(UnsupportedQueryError):
        lifted_probability(
            parse("forall x. ((R(x) -> U(x)) & (U(x) -> T(x)))"), db
        )


def test_sentence_rejects_mixed_prefix(db):
    with pytest.raises(UnsupportedQueryError):
        lifted_probability(parse("forall x. exists y. S(x,y)"), db)


def test_sentence_to_ucq_distributes():
    u = sentence_to_ucq(parse("exists x. exists y. ((R(x) | T(y)) & S(x,y))"))
    assert len(u) == 2


def test_sentence_to_ucq_rejects_forall():
    with pytest.raises(UnsupportedQueryError):
        sentence_to_ucq(parse("forall x. R(x)"))


# -- safety decisions -----------------------------------------------------------------


def test_cq_is_safe_matches_hierarchy():
    assert cq_is_safe(parse_cq("R(x), S(x,y)"))
    assert not cq_is_safe(parse_cq("R(x), S(x,y), T(y)"))


def test_cq_is_safe_rejects_self_joins():
    with pytest.raises(ValueError):
        cq_is_safe(parse_cq("R(x,y), R(y,z)"))


def test_decide_safety_classifications():
    assert decide_safety(parse_cq("R(x), S(x,y)")).complexity is Complexity.PTIME
    assert (
        decide_safety(parse_cq("R(x), S(x,y), T(y)")).complexity
        is Complexity.SHARP_P_HARD
    )
    assert (
        decide_safety(parse_ucq("R(x), S(x,y) | T(u), S(u,v)")).complexity
        is Complexity.PTIME
    )
    assert (
        decide_safety(parse_ucq("R(x), S(x,y) | S(u,v), T(v)")).complexity
        is Complexity.SHARP_P_HARD
    )


def test_decide_safety_self_join():
    verdict = decide_safety(parse_cq("R(x,y), R(y,z)"))
    assert verdict.complexity is Complexity.SHARP_P_HARD
    assert verdict.blocking_subquery


def test_decide_safety_matches_brute_force_when_safe(db):
    # any query declared PTIME must actually evaluate correctly
    for text in ("R(x)", "R(x), S(x,y)", "R(x), T(y)"):
        q = parse_cq(text)
        if decide_safety(q).is_safe:
            got = lifted_probability(q, db)
            want = db.brute_force_probability(q.to_formula())
            assert close(got, want)


# -- data-free derivations against the grounded routes ----------------------------

_SCHEMA = (("R", 1), ("S", 2), ("T", 1))


@st.composite
def _ucq_and_tid(draw):
    """A UCQ of ≤3 disjuncts of ≤3 atoms (arity ≤2, self-joins allowed, 0–2
    constants) and a TID whose domain holds those constants plus fresh
    values."""
    constants = draw(st.lists(st.sampled_from("ab"), max_size=2, unique=True))
    terms = [Var(v) for v in "xyz"] + [Const(c) for c in constants]
    disjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        atoms = []
        for _ in range(draw(st.integers(1, 3))):
            name, arity = draw(st.sampled_from(_SCHEMA))
            atoms.append(Atom(name, tuple(draw(st.sampled_from(terms)) for _ in range(arity))))
        disjuncts.append(ConjunctiveQuery(tuple(atoms)))
    query = UnionOfConjunctiveQueries(tuple(disjuncts))
    domain = sorted({c.value for q in disjuncts for c in q.constants})
    domain += [f"f{i}" for i in range(draw(st.integers(1, 2)))]
    facts = [
        (name, values)
        for name, arity in _SCHEMA
        for values in itertools.product(domain, repeat=arity)
    ]
    tid = TupleIndependentDatabase()
    for name, values in draw(st.lists(st.sampled_from(facts), max_size=10, unique=True)):
        tid.add_fact(name, values, draw(st.sampled_from((0.2, 0.5, 0.9, 1.0))))
    tid.explicit_domain = frozenset(domain)
    return query, tid


def _qw():
    h31 = parse_cq("S1(x,y), S2(x,y)")
    return UnionOfConjunctiveQueries(
        (parse_cq("R(x), S1(x,y)"), h31.conjoin(parse_cq("S2(x,y), S3(x,y)")))
    )


@settings(max_examples=120, deadline=None)
@given(_ucq_and_tid())
@example((parse_ucq("R(x), S(x,y) | T(u), S(u,v)"), random_tid(4, 3, density=0.5)))
@example((_qw(), random_tid(5, 2, schema=(("R", 1), ("S1", 2), ("S2", 2), ("S3", 2)), density=0.5)))
@example((parse_ucq("R(x,y), R(y,z)"), random_tid(6, 3, schema=(("R", 2),), density=0.6)))
def test_derive_decides_lifted_and_agrees_with_grounded_routes(case):
    query, populated = case
    try:
        derive(query)
    except NonLiftableError:
        liftable = False
    else:
        liftable = True
    for tid in (populated, TupleIndependentDatabase()):
        pdb = ProbabilisticDatabase(tid=tid)
        brute = tid.brute_force_probability(query.to_formula())
        if liftable:
            lifted = pdb.probability(query, Method.LIFTED).probability
            assert close(lifted, brute)
            assert close(pdb.probability(query, Method.DPLL).probability, brute)
        else:
            with pytest.raises(NonLiftableError):
                pdb.probability(query, Method.LIFTED)
            auto = pdb.probability(query)
            assert auto.method is Method.DPLL
            assert close(auto.probability, brute)


# -- ⊕ of many tiny probabilities ---------------------------------------------


@pytest.mark.parametrize(
    "query, relations, count, p",
    [
        # 1 - ∏(1 - p) rounds every 1 - 1e-17 to 1.0 and answers 0.0
        ("R(x)", ("R",), 1000, 1e-17),
        # a union AUTO routes to LIFTED and reports as exact
        ("R(x) | T(y)", ("R", "T"), 30, 1e-12),
    ],
)
@pytest.mark.parametrize("method", [Method.LIFTED, Method.AUTO, Method.DPLL])
def test_independent_or_keeps_tiny_probabilities(query, relations, count, p, method):
    pdb = ProbabilisticDatabase()
    for name in relations:
        for i in range(count):
            pdb.add_fact(name, (f"{name}{i}",), p)
    expected = -math.expm1(len(relations) * count * math.log1p(-p))
    answer = pdb.probability(query, method)
    assert answer.exact
    assert abs(answer.probability - expected) <= 1e-12 * expected


@pytest.mark.parametrize("query", ["R(x)", "R(x), T(y)"])
@pytest.mark.parametrize("execute", [execute_boolean, execute_boolean_columnar])
def test_safe_plan_executors_keep_tiny_probabilities(query, execute):
    """The rows oracle's ⊕ is ``u + v - u·v``: ``1 - (1-u)(1-v)`` answers
    0.0 here, where the columnar executor's log-space ⊕ keeps the mass."""
    pdb = ProbabilisticDatabase()
    for name in ("R", "T"):
        for i in range(1000):
            pdb.add_fact(name, (f"{name}{i}",), 1e-17 if name == "R" else 0.5)
    plan = project_boolean(safe_plan(parse_cq(query), pdb.tid))
    expected = -math.expm1(1000 * math.log1p(-1e-17))
    if "T" in query:
        expected *= -math.expm1(1000 * math.log1p(-0.5))
    assert abs(execute(plan, pdb.tid) - expected) <= 1e-12 * expected
