"""Unit tests for repro.kc: circuits, OBDDs, orders, and Figure 2."""

import itertools
import random

import pytest

from repro.booleans.expr import band, bnot, bor, bvar, evaluate
from repro.kc.circuits import Circuit, FALSE_LEAF, TRUE_LEAF
from repro.kc.fig2 import (
    fig2a_fbdd,
    fig2a_formula,
    fig2b_decision_dnnf,
    fig2b_formula,
)
from repro.kc.obdd import OBDD, compile_obdd
from repro.kc.orders import (
    exhaustive_minimum_size,
    hierarchical_order,
    predicate_major_order,
)
from repro.lineage.build import lineage_of_cq
from repro.logic.cq import parse_cq
from repro.wmc.brute import brute_force_wmc
from repro.workloads.generators import full_tid

from conftest import close


def assignments(k):
    for bits in itertools.product((False, True), repeat=k):
        yield dict(enumerate(bits))


# -- Circuit arena ----------------------------------------------------------------


def test_decision_collapses_equal_children():
    c = Circuit()
    assert c.decision(0, TRUE_LEAF, TRUE_LEAF) == TRUE_LEAF


def test_conjoin_unit_laws():
    c = Circuit()
    n = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    assert c.conjoin((n, TRUE_LEAF)) == n
    assert c.conjoin((n, FALSE_LEAF)) == FALSE_LEAF
    assert c.conjoin(()) == TRUE_LEAF


def test_disjoin_unit_laws():
    c = Circuit()
    n = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    assert c.disjoin((n, FALSE_LEAF)) == n
    assert c.disjoin((n, TRUE_LEAF)) == TRUE_LEAF
    assert c.disjoin(()) == FALSE_LEAF


def test_node_interning():
    c = Circuit()
    a = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    b = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    assert a == b
    assert c.size(a) == 1


def test_circuit_wmc_decision_semantics():
    c = Circuit()
    n = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    c.root = n
    assert close(c.wmc({0: 0.3}), 0.3)


def test_circuit_wmc_marginalizes_untested_variables():
    c = Circuit()
    c.root = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    # variable 1 not tested anywhere: result independent of its probability
    assert close(c.wmc({0: 0.3, 1: 0.9}), 0.3)


def test_circuit_model_count():
    c = Circuit()
    x = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    y = c.decision(1, FALSE_LEAF, TRUE_LEAF)
    c.root = c.conjoin((x, y))
    assert c.model_count([0, 1]) == pytest.approx(1)


def test_check_fbdd_detects_repeated_test():
    c = Circuit()
    inner = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    c.root = c.decision(0, inner, TRUE_LEAF)
    assert not c.check_fbdd()


def test_check_decision_dnnf_rejects_overlapping_and():
    c = Circuit()
    a = c.decision(0, FALSE_LEAF, TRUE_LEAF)
    b = c.decision(0, TRUE_LEAF, FALSE_LEAF)
    # a and b share variable 0 — not decomposable. conjoin doesn't check,
    # the validator must.
    c.root = c.conjoin((a, b))
    assert not c.check_decision_dnnf()


def test_check_d_dnnf_determinism():
    c = Circuit()
    la = c.literal(0, True)
    lb = c.literal(0, False)
    c.root = c.disjoin((la, lb))
    assert c.check_d_dnnf()  # x ∨ ¬x is deterministic (disjoint events)
    c2 = Circuit()
    c2.root = c2.disjoin((c2.literal(0, True), c2.literal(1, True)))
    assert not c2.check_d_dnnf()  # x ∨ y overlaps on x=y=1


# -- Figure 2 ----------------------------------------------------------------------


def test_fig2a_fbdd_semantics():
    circuit, _ = fig2a_fbdd()
    f = fig2a_formula()
    for a in assignments(3):
        assert circuit.evaluate(a) == evaluate(f, a)


def test_fig2a_is_fbdd():
    circuit, _ = fig2a_fbdd()
    assert circuit.check_fbdd()


def test_fig2a_wmc_matches_brute_force():
    circuit, _ = fig2a_fbdd()
    p = {0: 0.5, 1: 0.4, 2: 0.7}
    assert close(circuit.wmc(p), brute_force_wmc(fig2a_formula(), p))


def test_fig2b_decision_dnnf_semantics():
    circuit, _ = fig2b_decision_dnnf()
    f = fig2b_formula()
    for a in assignments(4):
        assert circuit.evaluate(a) == evaluate(f, a)


def test_fig2b_is_decision_dnnf():
    circuit, _ = fig2b_decision_dnnf()
    assert circuit.check_decision_dnnf()
    assert circuit.check_d_dnnf()


def test_fig2b_wmc():
    circuit, _ = fig2b_decision_dnnf()
    p = {0: 0.5, 1: 0.4, 2: 0.7, 3: 0.2}
    assert close(circuit.wmc(p), brute_force_wmc(fig2b_formula(), p))


# -- OBDD ---------------------------------------------------------------------------


def test_obdd_variable_and_negate():
    manager = OBDD((0, 1))
    v = manager.variable(0)
    assert manager.circuit.evaluate({0: True, 1: False}, v)
    assert not manager.circuit.evaluate({0: True, 1: False}, manager.negate(v))


def test_obdd_semantics_random():
    import random

    rng = random.Random(9)
    for _ in range(20):
        literals = [bvar(i) if rng.random() < 0.5 else bnot(bvar(i)) for i in range(4)]
        f = bor(band(literals[0], literals[1]), band(literals[2], literals[3]))
        manager, root = compile_obdd(f)
        for a in assignments(4):
            assert manager.circuit.evaluate(a, root) == evaluate(f, a)


def test_obdd_reduction_canonical():
    # x ∨ (x ∧ y) reduces to just x: one node
    f = bor(bvar(0), band(bvar(0), bvar(1)))
    manager, root = compile_obdd(f, order=[0, 1])
    assert manager.circuit.size(root) == 1


def test_obdd_wmc():
    f = bor(band(bvar(0), bvar(1)), bvar(2))
    p = {0: 0.5, 1: 0.3, 2: 0.8}
    manager, root = compile_obdd(f)
    assert close(manager.circuit.wmc(p, root), brute_force_wmc(f, p))


def test_obdd_model_count():
    f = bor(bvar(0), bvar(1))
    manager, root = compile_obdd(f)
    assert manager.circuit.model_count(manager.order, root) == 3


def test_obdd_rejects_duplicate_order():
    with pytest.raises(ValueError):
        OBDD((0, 0, 1))


def test_obdd_order_must_cover_variables():
    with pytest.raises(ValueError):
        compile_obdd(band(bvar(0), bvar(5)), order=[0, 1])


# -- orders ---------------------------------------------------------------------------


def test_hierarchical_order_linear_size():
    db = full_tid(3, 4)
    query = parse_cq("R(x), S(x,y)")
    lin = lineage_of_cq(query, db)
    manager, root = compile_obdd(lin.expr, hierarchical_order(query, lin))
    # linear in the number of lineage variables
    assert manager.circuit.size(root) <= lin.variable_count + 2


def test_predicate_major_order_is_worse():
    db = full_tid(3, 4)
    query = parse_cq("R(x), S(x,y)")
    lin = lineage_of_cq(query, db)
    good = compile_obdd(lin.expr, hierarchical_order(query, lin))
    bad = compile_obdd(lin.expr, predicate_major_order(lin))
    assert bad[0].circuit.size(bad[1]) > good[0].circuit.size(good[1])


def test_hierarchical_order_rejects_non_hierarchical():
    db = full_tid(3, 2)
    query = parse_cq("R(x), S(x,y), T(y)")
    lin = lineage_of_cq(query, db)
    with pytest.raises(ValueError):
        hierarchical_order(query, lin)


def test_exhaustive_minimum_exceeds_bound_for_h0():
    # Theorem 7.1(i)(b): every OBDD of H0's lineage has ≥ (2^n - 1)/n nodes.
    db = full_tid(5, 2)
    query = parse_cq("R(x), S(x,y), T(y)")
    lin = lineage_of_cq(query, db)
    n = 2
    minimum = exhaustive_minimum_size(lin.expr, sorted(lin.expr.variables()))
    assert minimum >= (2 ** n - 1) / n


def _random_expr(rng, variables):
    # an OR of ANDs of literals, sometimes conjoined with a second one
    def dnf():
        terms = []
        for _ in range(rng.randint(2, 4)):
            chosen = rng.sample(variables, rng.randint(1, min(3, len(variables))))
            terms.append(band(*(bnot(bvar(v)) if rng.random() < 0.2 else bvar(v) for v in chosen)))
        return bor(*terms)

    return band(dnf(), dnf()) if rng.random() < 0.4 else dnf()


def _sweep_minimum(expr, variables):
    best = None
    for order in itertools.permutations(variables):
        manager, root = compile_obdd(expr, order)
        size = manager.circuit.size(root)
        best = size if best is None else min(best, size)
    return best


def test_exhaustive_minimum_matches_permutation_sweep():
    # The subset DP must report the smallest reduced-OBDD node count that
    # compiling every one of the n! orders finds, on random expressions of
    # up to 6 variables; the order list may name variables the expression
    # lacks.
    rng = random.Random(7)
    for trial in range(40):
        variables = rng.sample(range(10), rng.randint(1, 6))
        expr = _random_expr(rng, variables)
        minimum = exhaustive_minimum_size(expr, variables)
        assert minimum == _sweep_minimum(expr, variables), (trial, expr)
    assert exhaustive_minimum_size(band(bvar(0), bnot(bvar(0))), [0]) == 0
    with pytest.raises(ValueError):
        exhaustive_minimum_size(bvar(3), [0, 1])
