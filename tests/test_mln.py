"""Unit tests for repro.mln: MLN semantics, Prop. 3.1, Boolean factors."""

import math
import random

import pytest

from repro.booleans.expr import band, bnot, bor, bvar
from repro.condition import ConditionedScenario, InconsistentConstraints
from repro.logic.formulas import And, Atom
from repro.logic.parser import parse
from repro.logic.terms import Const
from repro.mln.markov_network import (
    BooleanMarkovNetwork,
    Factor,
    conditional_probability as bool_conditional,
    encode_factor_iff,
    encode_factor_or,
)
from repro.mln.mln import MarkovLogicNetwork, SoftConstraint
from repro.mln.translate import (
    Encoding,
    mln_query_probability,
    mln_query_probability_symmetric,
    mln_to_tid,
)

from conftest import close

INF = float("inf")


def manager(domain=("a", "b")):
    """The paper's Sec. 3 example: (3.9, Manager(m,e) ⇒ HighComp(m))."""
    delta = parse("Manager(m,e) -> HighComp(m)")
    return MarkovLogicNetwork([SoftConstraint(3.9, delta)], domain=domain)


def two_rule():
    return MarkovLogicNetwork(
        [
            SoftConstraint(2.0, parse("R(x) -> U(x)")),
            SoftConstraint(3.0, parse("U(x)")),
        ],
        domain=("a", "b"),
    )


def closed_rule():
    """A soft constraint with no free variables gets a 0-ary auxiliary atom."""
    return MarkovLogicNetwork(
        [
            SoftConstraint(2.5, parse("exists x. R(x)")),
            SoftConstraint(1.5, parse("R(x) -> U(x)")),
        ],
        domain=("a", "b"),
    )


def hard_rule():
    return MarkovLogicNetwork(
        [
            SoftConstraint(INF, parse("R(x) -> U(x)")),
            SoftConstraint(2.0, parse("R(x)")),
        ],
        domain=("a", "b"),
    )


def scenario(mln, encoding):
    """The MLN's Prop. 3.1 encoding conditioned on its Γ."""
    encoded = mln_to_tid(mln, encoding)
    return ConditionedScenario.compile(encoded.database, [str(encoded.constraint)])


@pytest.fixture
def manager_mln():
    return manager()


def test_soft_constraint_rejects_negative_weight():
    with pytest.raises(ValueError):
        SoftConstraint(-1.0, parse("R(x)"))


def test_groundings_count(manager_mln):
    factors = manager_mln.ground()
    assert len(factors) == 4  # 2 × 2 substitutions of (m, e)
    assert all(w == 3.9 for w, _ in factors)  # prodb-lint: exact


def test_possible_tuples(manager_mln):
    tuples = manager_mln.possible_tuples()
    assert len(tuples) == 4 + 2  # Manager/2 over 2² plus HighComp/1 over 2


def test_weight_of_world_example(manager_mln):
    # Empty world satisfies all 4 groundings vacuously: weight 3.9⁴.
    assert close(manager_mln.weight_of_world(frozenset()), 3.9 ** 4)
    # A world violating exactly one grounding: Manager(a,b) without HighComp(a).
    world = frozenset({("Manager", ("a", "b"))})
    assert close(manager_mln.weight_of_world(world), 3.9 ** 3)


def test_partition_function_positive(manager_mln):
    z = manager_mln.partition_function()
    assert z > 0


def test_probability_monotone_in_evidence(manager_mln):
    # Given the constraint, seeing a manager should raise P(HighComp).
    base = manager_mln.probability(parse("HighComp('a')"))
    with_manager = manager_mln.probability(
        parse("Manager('a','b') & HighComp('a')")
    ) / manager_mln.probability(parse("Manager('a','b')"))
    assert with_manager > base


def test_hard_constraint_zeroes_violating_worlds():
    mln = MarkovLogicNetwork(
        [SoftConstraint(float("inf"), parse("R(x)"))], domain=("a",)
    )
    assert close(mln.probability(parse("R('a')")), 1.0)


def test_mln_to_tid_structure(manager_mln):
    encoded = mln_to_tid(manager_mln, Encoding.OR)
    db = encoded.database
    assert db.probability_of_fact("Manager", ("a", "b")) == 0.5  # prodb-lint: exact
    assert db.probability_of_fact("HighComp", ("a",)) == 0.5  # prodb-lint: exact
    # or-encoding: auxiliary probability 1/w
    assert close(db.probability_of_fact("Aux0", ("a", "b")), 1 / 3.9)
    assert encoded.database.is_symmetric()


def test_mln_to_tid_iff_probability(manager_mln):
    encoded = mln_to_tid(manager_mln, Encoding.IFF)
    assert close(
        encoded.database.probability_of_fact("Aux0", ("a", "b")), 3.9 / 4.9
    )


def test_or_encoding_needs_weight_above_one():
    mln = MarkovLogicNetwork([SoftConstraint(0.5, parse("R(x)"))], domain=("a",))
    with pytest.raises(ValueError):
        mln_to_tid(mln, Encoding.OR)
    # but the iff encoding handles w < 1
    assert mln_to_tid(mln, Encoding.IFF)


@pytest.mark.parametrize("encoding", [Encoding.OR, Encoding.IFF])
@pytest.mark.parametrize(
    "query",
    [
        "exists m. HighComp(m)",
        "Manager('a','b') & HighComp('a')",
        "forall m. forall e. (Manager(m,e) -> HighComp(m))",
    ],
)
def test_proposition_31(manager_mln, encoding, query):
    """p_MLN(Q) = p_D(Q | Γ) for both encodings (Prop. 3.1)."""
    q = parse(query)
    direct = manager_mln.probability(q)
    via_tid = mln_query_probability(manager_mln, q, encoding)
    assert close(direct, via_tid)


def test_conditional_probability_methods_agree(manager_mln):
    """The scenario's posterior equals possible-world enumeration of
    p_D(Q ∧ Γ) / p_D(Γ) on the encoded database."""
    encoded = mln_to_tid(manager_mln, Encoding.IFF)
    db, gamma = encoded.database, encoded.constraint
    q = parse("exists m. HighComp(m)")
    joint = db.brute_force_probability(And.of((q, gamma)))
    brute = joint / db.brute_force_probability(gamma)
    got = ConditionedScenario.compile(db, [str(gamma)]).posterior(q).probability
    assert math.isclose(got, brute, rel_tol=1e-12)


MANAGER_QUERIES = ("exists m. HighComp(m)", "forall m. exists e. Manager(m,e)")
RULE_QUERIES = ("exists x. U(x)", "U('a')", "R('a') & ~U('b')")


@pytest.mark.parametrize("encoding", [Encoding.OR, Encoding.IFF])
@pytest.mark.parametrize(
    "mln, queries",
    [
        (manager(), MANAGER_QUERIES),
        (manager(("a", "b", "c")), MANAGER_QUERIES),
        (two_rule(), RULE_QUERIES),
        (closed_rule(), RULE_QUERIES),
        (hard_rule(), RULE_QUERIES),
    ],
    ids=["manager-2", "manager-3", "two-rule", "closed-rule", "hard-rule"],
)
def test_proposition_31_through_scenario(mln, queries, encoding):
    """p_MLN(Q) = p_D(Q | Γ) to 1e-12 relative on every MLN shape."""
    z = mln.partition_function()
    for text in queries:
        q = parse(text)
        direct = mln.probability(q, z)
        assert math.isclose(mln_query_probability(mln, q, encoding), direct, rel_tol=1e-12)


@pytest.mark.parametrize("encoding", [Encoding.OR, Encoding.IFF])
def test_contradictory_hard_rules_are_inconsistent(encoding):
    mln = MarkovLogicNetwork(
        [SoftConstraint(INF, parse("R(x)")), SoftConstraint(INF, parse("~R(x)"))],
        domain=("a",),
    )
    with pytest.raises(InconsistentConstraints):
        mln_query_probability(mln, parse("R('a')"), encoding)


@pytest.mark.parametrize("mln", [manager(), two_rule()], ids=["manager", "two-rule"])
def test_fact_posteriors_are_mln_marginals(mln):
    """One differentiation pass gives every ground atom's p_MLN."""
    posteriors = scenario(mln, Encoding.IFF).fact_posteriors()
    for name, values in mln.possible_tuples():
        atom = Atom(name, tuple(Const(v) for v in values))
        report = posteriors[(name, values)]
        assert math.isclose(report.posterior, mln.probability(atom), rel_tol=1e-12)


def test_sample_posterior_within_its_guarantee(manager_mln):
    """Karp–Luby with Γ-rejection lands within its relative ε at a fixed seed."""
    conditioned = scenario(manager_mln, Encoding.OR)
    for text in ("exists m. HighComp(m)", "Manager('a','b') & HighComp('a')"):
        answer = conditioned.sample_posterior(
            text, epsilon=0.05, delta=0.05, rng=random.Random(7)
        )
        direct = manager_mln.probability(parse(text))
        assert not answer.exact
        assert abs(answer.probability - direct) <= 0.05 * direct


def test_whatif_is_mln_conditional(manager_mln):
    """Forcing evidence on the scenario is conditioning the MLN on it."""
    got = (
        scenario(manager_mln, Encoding.OR)
        .whatif({"Manager('a','b')": True})
        .posterior("HighComp('a')")
        .probability
    )
    want = manager_mln.probability(
        parse("Manager('a','b') & HighComp('a')")
    ) / manager_mln.probability(parse("Manager('a','b')"))
    assert math.isclose(got, want, rel_tol=1e-12)


def test_multi_constraint_mln():
    mln = two_rule()
    q = parse("exists x. U(x)")
    direct = mln.probability(q)
    via = mln_query_probability(mln, q, Encoding.IFF)
    assert close(direct, via)


# -- lifted MLN inference via symmetric WFOMC (SlimShot route) ------------------------


@pytest.mark.parametrize("encoding", [Encoding.OR, Encoding.IFF])
@pytest.mark.parametrize(
    "query",
    [
        "exists m. HighComp(m)",
        "forall m. forall e. (Manager(m,e) -> HighComp(m))",
        "forall m. exists e. Manager(m,e)",
    ],
)
def test_symmetric_mln_inference_matches_direct(manager_mln, encoding, query):
    q = parse(query)
    direct = manager_mln.probability(q)
    lifted = mln_query_probability_symmetric(manager_mln, q, encoding)
    assert close(direct, lifted)


def test_symmetric_mln_inference_scales_beyond_enumeration():
    mln = MarkovLogicNetwork(
        [SoftConstraint(3.9, parse("Manager(m,e) -> HighComp(m)"))],
        domain=tuple(f"p{i}" for i in range(6)),
    )
    # direct enumeration would need 2^(36+6+36) worlds; this must be fast
    p = mln_query_probability_symmetric(
        mln, parse("forall m. forall e. (Manager(m,e) -> HighComp(m))")
    )
    assert 0.0 <= p <= 1.0


def test_symmetric_mln_rejects_fo3():
    from repro.symmetric.scott import NotFO2Error

    mln = MarkovLogicNetwork(
        [SoftConstraint(2.0, parse("R(x) -> U(x)"))], domain=("a", "b")
    )
    with pytest.raises(NotFO2Error):
        mln_query_probability_symmetric(
            mln, parse("exists x. exists y. exists z. (S0(x,y) & S0(y,z))")
        )


# -- Boolean Markov networks (appendix) ----------------------------------------------


def test_fig3_weight_table():
    x1, x2, x3 = bvar(1), bvar(2), bvar(3)
    f = band(bor(x1, x2), bor(x1, x3), bor(x2, x3))
    w = {1: 2.0, 2: 3.0, 3: 4.0}
    network = BooleanMarkovNetwork(dict(w))
    assert close(
        network.weight_of_formula(f),
        w[2] * w[3] + w[1] * w[3] + w[1] * w[2] + w[1] * w[2] * w[3],
    )


def test_fig3_with_factor_weight_table():
    # adding the factor (w4, X1 ⇒ X2) reweights per the last Fig. 3 column
    x1, x2, x3 = bvar(1), bvar(2), bvar(3)
    f = band(bor(x1, x2), bor(x1, x3), bor(x2, x3))
    w = {1: 2.0, 2: 3.0, 3: 4.0}
    w4 = 1.7
    network = BooleanMarkovNetwork(dict(w), [Factor(w4, bor(bnot(x1), x2))])
    expected = (
        w[2] * w[3] * w4
        + w[1] * w[3]
        + w[1] * w[2] * w4
        + w[1] * w[2] * w[3] * w4
    )
    assert close(network.weight_of_formula(f), expected)


@pytest.mark.parametrize("w4", [0.3, 0.6, 1.5, 3.9])
def test_factor_encodings_preserve_conditionals(w4):
    x1, x2, x3 = bvar(1), bvar(2), bvar(3)
    event = band(bor(x1, x2), bor(x2, x3))
    network = BooleanMarkovNetwork(
        {1: 0.9, 2: 1.4, 3: 2.2}, [Factor(w4, bor(bnot(x1), x2))]
    )
    want = network.probability(event)
    independent_iff, gamma_iff = encode_factor_iff(network, 0, 9)
    independent_or, gamma_or = encode_factor_or(network, 0, 9)
    assert close(bool_conditional(independent_iff, event, gamma_iff), want)
    assert close(bool_conditional(independent_or, event, gamma_or), want)


def test_or_encoding_negative_weight_below_one():
    # w4 < 1 ⇒ auxiliary weight negative: a non-standard probability, yet
    # all conditionals stay in [0, 1] (appendix closing remark).
    network = BooleanMarkovNetwork(
        {1: 1.0, 2: 1.0}, [Factor(0.4, bor(bvar(1), bvar(2)))]
    )
    independent, gamma = encode_factor_or(network, 0, 5)
    assert independent.variable_weights[5] < 0
    p = bool_conditional(independent, bvar(1), gamma)
    assert 0.0 <= p <= 1.0


def test_or_encoding_rejects_weight_one():
    network = BooleanMarkovNetwork({1: 1.0}, [Factor(1.0, bvar(1))])
    with pytest.raises(ValueError):
        encode_factor_or(network, 0, 5)
