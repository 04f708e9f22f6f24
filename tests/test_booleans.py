"""Unit tests for repro.booleans: expressions, ops and normal forms."""

import gc
import itertools
import threading

import pytest

from repro.booleans.expr import (
    B_FALSE,
    B_TRUE,
    BAnd,
    BNot,
    BOr,
    BVar,
    band,
    bnot,
    bor,
    bvar,
    evaluate,
)
from repro.booleans.forms import (
    FormSizeExceeded,
    dnf_occurrence_counts,
    from_cnf,
    from_dnf,
    literal,
    literal_sign,
    literal_var,
    to_cnf,
    to_dnf,
)
from repro.booleans.ops import (
    cofactors,
    condition,
    independent_factors,
    is_positive,
    most_frequent_variable,
    substitute_exprs,
    variable_frequencies,
)

x, y, z, u = bvar(0), bvar(1), bvar(2), bvar(3)


def all_assignments(variables):
    variables = sorted(variables)
    for bits in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, bits))


def semantically_equal(f, g):
    variables = f.variables() | g.variables()
    return all(
        evaluate(f, a) == evaluate(g, a) for a in all_assignments(variables)
    )


# -- constructors and simplification ------------------------------------------


def test_and_unit_laws():
    assert band(x, B_TRUE) == x
    assert band(x, B_FALSE) == B_FALSE
    assert band() == B_TRUE


def test_or_unit_laws():
    assert bor(x, B_FALSE) == x
    assert bor(x, B_TRUE) == B_TRUE
    assert bor() == B_FALSE


def test_idempotence_and_commutativity():
    assert band(x, x) == x
    assert band(x, y) == band(y, x)
    assert bor(y, x) == bor(x, y)


def test_complement_law():
    assert band(x, bnot(x)) == B_FALSE
    assert bor(x, bnot(x)) == B_TRUE


def test_double_negation():
    assert bnot(bnot(x)) == x
    assert bnot(B_TRUE) == B_FALSE


def test_flattening():
    f = band(x, band(y, z))
    assert isinstance(f, BAnd)
    assert len(f.parts) == 3


def test_structural_hashing():
    assert hash(band(x, y)) == hash(band(y, x))
    assert band(x, y).key() == band(y, x).key()


def test_variables():
    assert (band(x, bor(y, bnot(z)))).variables() == {0, 1, 2}


def test_node_count():
    assert x.node_count() == 1
    assert band(x, y).node_count() == 3


def test_evaluate():
    f = bor(band(x, y), bnot(z))
    assert evaluate(f, {0: True, 1: True, 2: True})
    assert not evaluate(f, {0: False, 1: True, 2: True})


# -- conditioning and components ------------------------------------------------


def test_condition_basic():
    f = bor(band(x, y), band(bnot(x), z))
    assert condition(f, {0: True}) == y
    assert condition(f, {0: False}) == z


def test_condition_partial():
    f = band(x, y, z)
    assert condition(f, {1: True}) == band(x, z)


def test_cofactors():
    f = bor(x, y)
    lo, hi = cofactors(f, 0)
    assert lo == y and hi == B_TRUE


def test_interning_is_canonical():
    # structurally equal constructions yield the very same object
    f = band(bor(x, y), bor(y, z))
    g = band(bor(y, z), bor(x, y))
    assert f is g
    assert f.nid == g.nid
    assert bvar(0) is x


def test_condition_untouched_subtree_is_identical():
    # var ∉ vars(node) ⇒ condition returns the node itself, not a rebuild
    sub = bor(y, z)
    assert condition(sub, {0: True}) is sub
    assert condition(sub, {0: True, 3: False}) is sub
    # conditioning a parent must hand back untouched children unchanged
    f = band(x, sub)
    assert condition(f, {0: True}) is sub
    g = band(bor(x, y), sub, bor(u, bvar(5)))
    conditioned = condition(g, {0: True})
    assert isinstance(conditioned, BAnd)
    assert any(part is sub for part in conditioned.parts)


def test_cofactor_memoization_stable():
    f = band(bor(x, y), bor(y, z))
    first = cofactors(f, 1)
    second = cofactors(f, 1)
    assert first[0] is second[0] and first[1] is second[1]
    assert first[1] is B_TRUE  # y=1 satisfies both disjuncts


def test_unique_table_releases_dead_expressions():
    # the unique table holds its nodes weakly: once a formula becomes
    # unreachable, gc reclaims it and its entries — kernel memory is
    # bounded by live expressions, not by everything ever built
    from repro.booleans.kernel import DEFAULT_MANAGER

    gc.collect()
    base = len(DEFAULT_MANAGER.unique)
    forest = [bor(bvar(70_000 + i), bvar(71_000 + i)) for i in range(64)]
    grown = len(DEFAULT_MANAGER.unique)
    assert grown >= base + 3 * 64  # 64 disjunctions plus 128 fresh literals
    del forest
    gc.collect()
    assert len(DEFAULT_MANAGER.unique) <= grown - 3 * 64


def test_kernel_counters_are_thread_local():
    # another thread's interning must not leak into this thread's
    # counters (per-query stats deltas rely on this)
    from repro.booleans.kernel import kernel_statistics

    def churn():
        for i in range(16):
            cofactors(bor(bvar(90_000 + i), bvar(91_000 + i)), 90_000 + i)

    before = kernel_statistics()
    worker = threading.Thread(target=churn)
    worker.start()
    worker.join()
    after = kernel_statistics()
    assert after.intern_misses == before.intern_misses
    # while the shared tables did absorb the worker's nodes
    assert after.unique_nodes > before.unique_nodes


def test_independent_factors_and():
    # flattening makes each variable its own component here
    f = band(band(x, y), band(z, u))
    assert len(independent_factors(f)) == 4
    # with shared variables inside each side, two components remain
    g = band(bor(x, y), bor(x, y), bor(z, u))
    assert len(independent_factors(g)) == 2


def test_independent_factors_connected():
    f = band(bor(x, y), bor(y, z))
    assert len(independent_factors(f)) == 1


def test_independent_factors_or():
    f = bor(band(x, y), band(z, u))
    assert len(independent_factors(f)) == 2


def test_variable_frequencies():
    f = bor(band(x, y), band(x, z))
    counts = variable_frequencies(f)
    assert counts[0] == 2 and counts[1] == 1


def test_most_frequent_variable():
    f = bor(band(x, y), band(x, z))
    assert most_frequent_variable(f) == 0
    with pytest.raises(ValueError):
        most_frequent_variable(B_TRUE)


def test_is_positive():
    assert is_positive(bor(band(x, y), z))
    assert not is_positive(band(x, bnot(y)))


def test_substitute_exprs():
    f = band(x, y)
    g = substitute_exprs(f, {0: bor(z, u)})
    assert semantically_equal(g, band(bor(z, u), y))


# -- normal forms -----------------------------------------------------------------


def test_literal_encoding_round_trip():
    lit = literal(5, False)
    assert literal_var(lit) == 5
    assert not literal_sign(lit)
    assert literal_sign(literal(5, True))


def test_to_dnf_simple():
    f = band(bor(x, y), z)
    clauses = to_dnf(f)
    assert frozenset({literal(0), literal(2)}) in clauses
    assert frozenset({literal(1), literal(2)}) in clauses


def test_dnf_round_trip_semantics():
    f = bor(band(x, bnot(y)), band(y, z), bnot(z))
    assert semantically_equal(f, from_dnf(to_dnf(f)))


def test_cnf_round_trip_semantics():
    f = bor(band(x, bnot(y)), band(y, z))
    assert semantically_equal(f, from_cnf(to_cnf(f)))


def test_dnf_drops_contradictions():
    f = band(x, bnot(x))
    assert to_dnf(f) == []


def test_dnf_prunes_subsumed():
    f = bor(x, band(x, y))
    assert to_dnf(f) == [frozenset({literal(0)})]


def test_dnf_size_guard():
    # (x0 ∨ y0) ∧ (x1 ∨ y1) ∧ ... blows up exponentially in DNF
    parts = [bor(bvar(2 * i), bvar(2 * i + 1)) for i in range(20)]
    with pytest.raises(FormSizeExceeded):
        to_dnf(BAnd.of(parts), max_clauses=1000)


def test_dnf_size_guard_raises_before_expanding(monkeypatch):
    # a negation-free form's clause count is the product/sum of its parts'
    # counts, so the guard fires before any cross product is built
    from repro.booleans import forms

    combined = []
    monkeypatch.setattr(forms, "_contradictory", lambda clause: combined.append(clause))
    parts = [bor(bvar(3 * i), bvar(3 * i + 1), bvar(3 * i + 2)) for i in range(12)]
    with pytest.raises(FormSizeExceeded):
        to_dnf(BAnd.of(parts))
    assert combined == []
    # the bound is exact: 3 × 3 clauses fit in 9 and not in 8
    two = BAnd.of(parts[:2])
    assert len(to_dnf(two, max_clauses=9)) == 9
    with pytest.raises(FormSizeExceeded):
        to_dnf(two, max_clauses=8)


def test_dnf_occurrence_counts():
    clauses = to_dnf(bor(band(x, y), band(x, z)))
    counts = dnf_occurrence_counts(clauses)
    assert counts == {0: 2, 1: 1, 2: 1}


def test_true_false_normal_forms():
    assert to_dnf(B_TRUE) == [frozenset()]
    assert to_dnf(B_FALSE) == []
    assert to_cnf(B_FALSE) == [frozenset()]
    assert to_cnf(B_TRUE) == []
