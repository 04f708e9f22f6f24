"""Unit tests for the public façade (repro.core.pdb)."""

import pytest

from repro.core.pdb import Method, ProbabilisticDatabase
from repro.logic.cq import parse_cq
from repro.logic.parser import parse
from repro.workloads.generators import random_tid

from conftest import close


@pytest.fixture
def pdb():
    return ProbabilisticDatabase(tid=random_tid(19, 3), seed=11)


def test_parse_query_routes():
    assert parse_cq("R(x), S(x,y)") == ProbabilisticDatabase.parse_query(
        "R(x), S(x,y)"
    )
    sentence = ProbabilisticDatabase.parse_query("exists x. R(x)")
    assert sentence.is_sentence()
    ucq = ProbabilisticDatabase.parse_query("R(x) | T(y)")
    assert len(ucq) == 2


def test_auto_uses_lifted_for_safe_query(pdb):
    answer = pdb.probability("R(x), S(x,y)")
    assert answer.method is Method.SAFE_PLAN
    assert answer.exact


def test_auto_falls_back_for_hard_query(pdb):
    answer = pdb.probability("R(x), S(x,y), T(y)")
    assert answer.method is Method.DPLL
    assert "lifted failed" in answer.detail


def test_all_exact_methods_agree(pdb):
    text = "R(x), S(x,y)"
    values = [
        pdb.probability(text, method).probability
        for method in (Method.LIFTED, Method.SAFE_PLAN, Method.DPLL, Method.BRUTE_FORCE)
    ]
    for value in values[1:]:
        assert close(values[0], value)


def test_exact_methods_agree_on_hard_query(pdb):
    text = "R(x), S(x,y), T(y)"
    dpll = pdb.probability(text, Method.DPLL).probability
    brute = pdb.probability(text, Method.BRUTE_FORCE).probability
    assert close(dpll, brute)


def test_monte_carlo_close(pdb):
    text = "R(x), S(x,y)"
    exact = pdb.probability(text, Method.DPLL).probability
    pdb.mc_epsilon = 0.03
    estimate = pdb.probability(text, Method.MONTE_CARLO)
    assert not estimate.exact
    assert abs(estimate.probability - exact) < 0.05


def test_karp_luby_close(pdb):
    text = "R(x), S(x,y), T(y)"
    exact = pdb.probability(text, Method.DPLL).probability
    pdb.mc_epsilon = 0.05
    estimate = pdb.probability(text, Method.KARP_LUBY)
    assert not estimate.exact
    if exact > 0:
        assert abs(estimate.probability - exact) / exact < 0.15


def test_sentence_query(pdb):
    text = "forall x. forall y. (~S(x,y) | R(x))"
    got = pdb.probability(text)
    want = pdb.probability(text, Method.BRUTE_FORCE)
    assert close(got.probability, want.probability)


def test_safe_plan_method_rejects_ucq(pdb):
    from repro.plans.safe_plan import UnsafePlanError

    with pytest.raises(UnsafePlanError):
        pdb.probability("R(x) | T(y)", Method.SAFE_PLAN)


def test_probability_rejects_free_variables(pdb):
    with pytest.raises(ValueError):
        pdb.probability(parse("R(x)"))


def test_answers_per_tuple(pdb):
    answers = pdb.answers("R(x), S(x,y)", ["x"])
    assert answers
    for values, answer in answers.items():
        assert len(values) == 1
        assert 0.0 <= answer.probability <= 1.0
        assert answer.exact


def test_answers_match_boolean_with_constant(pdb):
    answers = pdb.answers("R(x), S(x,y)", ["x"])
    for (value,), answer in answers.items():
        boolean = pdb.probability(f"R('{value}'), S('{value}', y)", Method.DPLL)
        assert close(answer.probability, boolean.probability)


def test_answers_rejects_unknown_head(pdb):
    with pytest.raises(ValueError):
        pdb.answers("R(x), S(x,y)", ["z"])


def test_explain_contains_method(pdb):
    text = pdb.explain("R(x), S(x,y)")
    assert "safe-plan" in text
    assert "probability" in text


def test_add_fact_and_domain_roundtrip():
    pdb = ProbabilisticDatabase()
    pdb.add_fact("R", ("a",), 0.5)
    pdb.add_fact("S", ("a", "b"), 0.5)
    assert pdb.domain == ("a", "b")
    pdb.set_domain(("a", "b", "c"))
    assert pdb.domain == ("a", "b", "c")


def test_query_answer_float_protocol(pdb):
    answer = pdb.probability("R(x)")
    assert float(answer) == answer.probability


def test_tuple_posteriors_monotone_query(pdb):
    reports = pdb.tuple_posteriors("R(x), S(x,y)")
    assert reports
    for (name, values), report in reports.items():
        prior = pdb.tid.probability_of_fact(name, values)
        assert close(report.prior, prior)
        # monotone query: conditioning on truth never lowers a marginal
        assert report.posterior >= report.prior - 1e-9


def test_most_probable_world_satisfies_query(pdb):
    from repro.logic.semantics import satisfies

    world, probability = pdb.most_probable_world("R(x), S(x,y)")
    present = frozenset(fact for fact, value in world.items() if value)
    sentence = ProbabilisticDatabase.parse_query("R(x), S(x,y)").to_formula()
    assert satisfies(present, pdb.domain, sentence)
    assert 0.0 < probability <= 1.0
