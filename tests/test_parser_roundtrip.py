"""Property test: printing then re-parsing a formula is the identity."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.logic.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
)
from repro.logic.parser import parse
from repro.logic.terms import Const, Var

VARIABLES = [Var("x"), Var("y"), Var("z")]
PREDICATES = [("P", 0), ("R", 1), ("S", 2), ("T", 1)]


@st.composite
def terms(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(VARIABLES))
    return Const(draw(st.sampled_from(["a1", "b2", "c3"])))


@st.composite
def atoms(draw):
    name, arity = draw(st.sampled_from(PREDICATES))
    return Atom(name, tuple(draw(terms()) for _ in range(arity)))


@st.composite
def formulas(draw, depth=3) -> Formula:
    if depth == 0:
        return draw(atoms())
    kind = draw(st.sampled_from(["atom", "not", "and", "or", "exists", "forall"]))
    if kind == "atom":
        return draw(atoms())
    if kind == "not":
        return Not(draw(formulas(depth=depth - 1)))
    if kind in ("and", "or"):
        parts = tuple(
            draw(formulas(depth=depth - 1))
            for _ in range(draw(st.integers(2, 3)))
        )
        return And.of(parts) if kind == "and" else Or.of(parts)
    var = draw(st.sampled_from(VARIABLES))
    body = draw(formulas(depth=depth - 1))
    return Exists(var, body) if kind == "exists" else Forall(var, body)


@given(formulas())
@settings(max_examples=250, deadline=None)
def test_parse_str_roundtrip(formula):
    assert parse(str(formula)) == formula


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_str_is_deterministic(formula):
    assert str(formula) == str(formula)


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_roundtrip_preserves_free_variables(formula):
    reparsed = parse(str(formula))
    assert reparsed.free_variables() == formula.free_variables()


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_roundtrip_preserves_relation_symbols(formula):
    assert parse(str(formula)).relation_symbols() == formula.relation_symbols()
