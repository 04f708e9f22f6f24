"""Property-based tests (hypothesis) for the core data structures."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.booleans.expr import (
    B_FALSE,
    B_TRUE,
    BAnd,
    BExpr,
    BOr,
    bnot,
    bvar,
    evaluate,
)
from repro.booleans.forms import from_cnf, from_dnf, to_cnf, to_dnf
from repro.booleans.ops import condition, independent_factors
from repro.kc.obdd import compile_obdd
from repro.wmc.brute import brute_force_wmc
from repro.wmc.dpll import DPLLCounter, compile_decision_dnnf

VARS = 5


@st.composite
def boolean_exprs(draw, depth=3) -> BExpr:
    if depth == 0:
        index = draw(st.integers(0, VARS - 1))
        leaf = bvar(index)
        return bnot(leaf) if draw(st.booleans()) else leaf
    kind = draw(st.sampled_from(["var", "not", "and", "or"]))
    if kind == "var":
        return draw(boolean_exprs(depth=0))
    if kind == "not":
        return bnot(draw(boolean_exprs(depth=depth - 1)))
    parts = draw(
        st.lists(boolean_exprs(depth=depth - 1), min_size=2, max_size=3)
    )
    return BAnd.of(parts) if kind == "and" else BOr.of(parts)


@st.composite
def assignments(draw):
    return {i: draw(st.booleans()) for i in range(VARS)}


@st.composite
def probability_maps(draw):
    return {
        i: draw(st.floats(0.05, 0.95, allow_nan=False, allow_infinity=False))
        for i in range(VARS)
    }


@given(boolean_exprs(), assignments())
@settings(max_examples=150, deadline=None)
def test_negation_involution(expr, assignment):
    assert evaluate(bnot(bnot(expr)), assignment) == evaluate(expr, assignment)


@given(boolean_exprs(), boolean_exprs(), assignments())
@settings(max_examples=150, deadline=None)
def test_de_morgan(f, g, assignment):
    left = bnot(BAnd.of((f, g)))
    right = BOr.of((bnot(f), bnot(g)))
    assert evaluate(left, assignment) == evaluate(right, assignment)


@given(boolean_exprs(), assignments())
@settings(max_examples=100, deadline=None)
def test_condition_agrees_with_evaluation(expr, assignment):
    conditioned = condition(expr, assignment)
    assert conditioned in (B_TRUE, B_FALSE)
    assert (conditioned == B_TRUE) == evaluate(expr, assignment)


@given(boolean_exprs(), assignments())
@settings(max_examples=100, deadline=None)
def test_dnf_preserves_semantics(expr, assignment):
    rebuilt = from_dnf(to_dnf(expr))
    assert evaluate(rebuilt, assignment) == evaluate(expr, assignment)


@given(boolean_exprs(), assignments())
@settings(max_examples=100, deadline=None)
def test_cnf_preserves_semantics(expr, assignment):
    rebuilt = from_cnf(to_cnf(expr))
    assert evaluate(rebuilt, assignment) == evaluate(expr, assignment)


@given(boolean_exprs(), assignments())
@settings(max_examples=100, deadline=None)
def test_independent_factors_partition_semantics(expr, assignment):
    factors = independent_factors(expr)
    if isinstance(expr, BAnd):
        combined = all(evaluate(f, assignment) for f in factors)
    elif isinstance(expr, BOr):
        combined = any(evaluate(f, assignment) for f in factors)
    else:
        combined = evaluate(factors[0], assignment)
    assert combined == evaluate(expr, assignment)


@given(boolean_exprs(), probability_maps())
@settings(max_examples=60, deadline=None)
def test_dpll_matches_brute_force(expr, probabilities):
    got = DPLLCounter().run(expr, probabilities).probability
    want = brute_force_wmc(expr, probabilities)
    assert abs(got - want) < 1e-9


@given(boolean_exprs(), probability_maps())
@settings(max_examples=40, deadline=None)
def test_obdd_matches_brute_force(expr, probabilities):
    manager, root = compile_obdd(expr)
    got = manager.circuit.wmc(probabilities, root)
    want = brute_force_wmc(expr, probabilities)
    assert abs(got - want) < 1e-9


@given(boolean_exprs(), probability_maps())
@settings(max_examples=40, deadline=None)
def test_trace_is_valid_decision_dnnf(expr, probabilities):
    result = compile_decision_dnnf(expr, probabilities)
    assert result.circuit.check_decision_dnnf()
    assert abs(result.circuit.wmc(probabilities) - result.probability) < 1e-9


@given(boolean_exprs(), assignments())
@settings(max_examples=60, deadline=None)
def test_obdd_pointwise_semantics(expr, assignment):
    manager, root = compile_obdd(expr)
    assert manager.circuit.evaluate(assignment, root) == evaluate(expr, assignment)


@given(boolean_exprs())
@settings(max_examples=100, deadline=None)
def test_structural_key_is_stable(expr):
    # rebuilding the same expression yields the same key and hash
    assert expr.key() == expr.key()
    clone = BAnd.of((expr, B_TRUE))
    assert clone.key() == expr.key()
