"""The DPLL counter's positive-DNF clause path against its general loop.

A positive DNF (a variable, a conjunction of variables, or a disjunction of
those) is counted on clause bitmasks; anything else on the hash-consed
kernel. On random positive DNFs — duplicate, subsumed and single-literal
clauses, probabilities 0 and 1 — both must agree with each other and with
world enumeration under every counter configuration, and a recorded
clause-path trace must be a valid circuit that differentiates correctly.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.booleans.expr import band, bor, bvar
from repro.kc.differentiate import differentiate
from repro.wmc.brute import brute_force_wmc
from repro.wmc.dpll import DPLLCounter, compile_decision_dnnf, positive_dnf_clauses

from test_differentiate import brute_posterior

UNIVERSE = 30
#: World enumeration is the oracle up to this many variables; past it the
#: general loop is.
BRUTE_LIMIT = 12
TOLERANCE = 1e-12


@st.composite
def positive_dnfs(draw, probabilities=st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)):
    size = draw(st.integers(0, UNIVERSE))
    variables = st.integers(0, max(size - 1, 0))
    clause_lists = st.lists(st.lists(variables, min_size=1, max_size=4), max_size=10)
    clauses = draw(clause_lists) if size else []
    for clause in list(clauses):
        extra = draw(st.sampled_from(("none", "duplicate", "subsumed")))
        if extra == "duplicate":
            clauses.append(list(clause))
        elif extra == "subsumed":
            clauses.append(clause + draw(st.lists(variables, min_size=1, max_size=2)))
    expr = bor(*(band(*(bvar(v) for v in clause)) for clause in clauses))
    weights = {v: draw(probabilities) for v in range(UNIVERSE)}
    return expr, weights


CONFIGS = {
    "default": {},
    "no-cache": {"use_cache": False},
    "no-components": {"use_components": False},
    "ordered": {"variable_order": [29 - v for v in range(0, UNIVERSE, 2)]},
    "trace": {"record_trace": True},
    "fbdd-trace": {"record_trace": True, "use_components": False},
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@given(case=positive_dnfs())
@settings(max_examples=80, deadline=None)
def test_clause_path_agrees_with_general_loop_and_brute_force(config, case):
    expr, probabilities = case
    counter = DPLLCounter(**config)
    result = counter.run(expr, probabilities)
    positive = positive_dnf_clauses(expr) is not None
    assert result.statistics.path == ("clause" if positive else "general")
    general, _ = counter._count_formula(
        expr, probabilities, or_split=not counter.record_trace
    )
    assert abs(result.probability - general) <= TOLERANCE
    if len(expr.variables()) <= BRUTE_LIMIT:
        want = brute_force_wmc(expr, probabilities)
        assert abs(result.probability - want) <= TOLERANCE
    if counter.record_trace:
        circuit = result.circuit
        valid = circuit.check_decision_dnnf if counter.use_components else circuit.check_fbdd
        assert valid()
        assert abs(circuit.wmc(probabilities) - result.probability) <= TOLERANCE


@given(case=positive_dnfs(probabilities=st.floats(0.05, 0.95)))
@settings(max_examples=60, deadline=None)
def test_differentiating_a_clause_trace_gives_brute_force_posteriors(case):
    expr, probabilities = case
    variables = expr.variables()
    if not variables or len(variables) > 10:
        return
    result = compile_decision_dnnf(expr, probabilities)
    assert result.statistics.path == "clause"
    reports = differentiate(result.circuit, probabilities)
    for var in variables:
        want = brute_posterior(expr, probabilities, var)
        assert abs(reports[var].posterior - want) <= TOLERANCE


def test_or_split_is_never_recorded():
    # two variable-disjoint clause groups: split when counting, decided when
    # tracing, same probability
    expr = bor(band(bvar(0), bvar(1)), band(bvar(1), bvar(2)), band(bvar(3), bvar(4)))
    p = {v: 0.5 + 0.08 * v for v in range(5)}
    counted = DPLLCounter().run(expr, p)
    traced = DPLLCounter(record_trace=True).run(expr, p)
    assert counted.statistics.or_splits > 0 and traced.statistics.or_splits == 0
    assert abs(counted.probability - traced.probability) <= TOLERANCE
    assert traced.circuit.check_decision_dnnf()


def test_external_cache_keeps_the_general_loop():
    expr = bor(band(bvar(0), bvar(1)), bvar(2))
    p = {0: 0.2, 1: 0.7, 2: 0.4}
    shared: dict = {}
    result = DPLLCounter(external_cache=shared).run(expr, p)
    assert result.statistics.path == "general" and shared
    assert abs(result.probability - brute_force_wmc(expr, p)) <= TOLERANCE
