"""Integration: every exact engine must agree on every query and database.

This is the library's master invariant — the possible-world oracle, lineage
+ brute-force WMC, DPLL, OBDD compilation, the decision-DNNF trace, safe
plans (when applicable) and lifted inference (when applicable) all compute
the same number.
"""

import pytest

from repro.kc.obdd import compile_obdd
from repro.lifted.engine import lifted_probability
from repro.lifted.errors import NonLiftableError
from repro.lineage.build import lineage_of_cq, lineage_of_sentence, lineage_of_ucq
from repro.logic.cq import parse_cq, parse_ucq
from repro.logic.parser import parse
from repro.plans.plan import execute_boolean, project_boolean
from repro.plans.safe_plan import try_safe_plan
from repro.wmc.brute import brute_force_wmc
from repro.wmc.dpll import DPLLCounter, compile_decision_dnnf
from repro.workloads.generators import random_tid

from conftest import close

CQ_TEXTS = [
    "R(x)",
    "S(x,y)",
    "R(x), S(x,y)",
    "R(x), T(y)",
    "R(x), S(x,y), T(y)",
    "S(x,y), T(y)",
]

UCQ_TEXTS = [
    "R(x) | T(y)",
    "R(x), S(x,y) | T(u), S(u,v)",
    "R(x), S(x,y) | S(u,v), T(v)",
]

SENTENCES = [
    "forall x. forall y. (R(x) | S(x,y) | T(y))",
    "forall x. forall y. (~S(x,y) | R(x))",
    "exists x. exists y. (R(x) & S(x,y) & T(y))",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("text", CQ_TEXTS)
def test_cq_engines_agree(seed, text):
    db = random_tid(seed, 3)
    query = parse_cq(text)
    reference = db.brute_force_probability(query.to_formula())

    lineage = lineage_of_cq(query, db)
    probabilities = lineage.probabilities()

    assert close(brute_force_wmc(lineage.expr, probabilities), reference)
    assert close(DPLLCounter().run(lineage.expr, probabilities).probability, reference)

    manager, root = compile_obdd(lineage.expr)
    assert close(manager.circuit.wmc(probabilities, root), reference)

    trace = compile_decision_dnnf(lineage.expr, probabilities)
    assert close(trace.probability, reference)
    assert trace.circuit.check_decision_dnnf()
    assert close(trace.circuit.wmc(probabilities), reference)

    plan = try_safe_plan(query)
    if plan is not None:
        assert close(execute_boolean(project_boolean(plan), db), reference)

    try:
        assert close(lifted_probability(query, db), reference)
    except NonLiftableError:
        # allowed only for genuinely unsafe queries
        assert not query.is_hierarchical() or query.has_self_joins()


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("text", UCQ_TEXTS)
def test_ucq_engines_agree(seed, text):
    db = random_tid(seed, 3)
    query = parse_ucq(text)
    reference = db.brute_force_probability(query.to_formula())

    lineage = lineage_of_ucq(query, db)
    probabilities = lineage.probabilities()
    assert close(brute_force_wmc(lineage.expr, probabilities), reference)
    assert close(DPLLCounter().run(lineage.expr, probabilities).probability, reference)

    try:
        assert close(lifted_probability(query, db), reference)
    except NonLiftableError:
        pass


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("text", SENTENCES)
def test_sentence_engines_agree(seed, text):
    db = random_tid(seed, 2)
    sentence = parse(text)
    reference = db.brute_force_probability(sentence)

    lineage = lineage_of_sentence(sentence, db)
    probabilities = lineage.probabilities()
    assert close(brute_force_wmc(lineage.expr, probabilities), reference)
    assert close(DPLLCounter().run(lineage.expr, probabilities).probability, reference)

    try:
        assert close(lifted_probability(sentence, db), reference)
    except NonLiftableError:
        pass


def test_duality_identity():
    """Sec. 2: PQE(Q) and PQE(dual(Q)) are interreducible.

    Concretely: p_D(Q) = 1 − p_D̄(dual over complements); we check the
    instance H0 vs its dual CQ with complemented relations.
    """
    db = random_tid(8, 2)
    h0 = parse("forall x. forall y. (R(x) | S(x,y) | T(y))")
    p_h0 = db.brute_force_probability(h0)
    negated = parse("exists x. exists y. (~R(x) & ~S(x,y) & ~T(y))")
    assert close(p_h0, 1.0 - db.brute_force_probability(negated))


def test_conditioning_identity():
    """p(Q | Γ)·p(Γ) = p(Q ∧ Γ) across engines."""
    db = random_tid(9, 2)
    q = parse("exists x. R(x)")
    gamma = parse("forall x. forall y. (~S(x,y) | R(x))")
    joint = db.brute_force_probability(parse(
        "(exists x. R(x)) & (forall x. forall y. (~S(x,y) | R(x)))"
    ))
    lineage_joint = lineage_of_sentence(
        ProbQ := parse(
            "(exists x. R(x)) & (forall x. forall y. (~S(x,y) | R(x)))"
        ),
        db,
    )
    assert close(
        DPLLCounter().run(lineage_joint.expr, lineage_joint.probabilities()).probability,
        joint,
    )
