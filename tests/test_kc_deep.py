"""Deep circuits: every pass over a compiled circuit is a loop, not a recursion.

A node's children have smaller ids than the node, so each pass walks the
reachable ids in ascending order and no DAG depth reaches Python's
recursion limit (1 000 frames by default). The circuits here are far
deeper than that, and every value is checked against a closed form.

With p(x_v) = (v + 2)/(v + 3) the product over v < n telescopes to
2/(n + 2), which keeps the values away from underflow at any depth.
"""

import pytest

from repro.kc.circuits import FALSE_LEAF, TRUE_LEAF, Circuit
from repro.kc.differentiate import differentiate
from repro.kc.mpe import most_probable_model, top_k_models
from repro.kc.obdd import OBDD

DEPTH = 5_000
REL = 1e-9


def prior(v):
    return (v + 2) / (v + 3)


def product(n):
    """Π_{v<n} prior(v) in closed form."""
    return 2 / (n + 2)


def near(got, want):
    return abs(got - want) <= REL * abs(want)


def decision_chain(n):
    """x_0 ∧ … ∧ x_{n−1} as n nested decisions (the root tests x_{n−1})."""
    circuit = Circuit()
    node = TRUE_LEAF
    for v in range(n):
        node = circuit.decision(v, FALSE_LEAF, node)
    circuit.root = node
    return circuit, {v: prior(v) for v in range(n)}


def and_or_chain(n, q=0.9):
    """x_{n−1} → (… → (x_0 → z)) as a d-DNNF: each level is
    (x_v ∧ rest) ∨ ¬x_v, a deterministic ∨ over a decomposable ∧;
    z is variable n with probability q."""
    circuit = Circuit()
    node = circuit.literal(n)
    for v in range(n):
        node = circuit.disjoin(
            [circuit.conjoin([circuit.literal(v), node]), circuit.literal(v, False)]
        )
    circuit.root = node
    probabilities = {v: prior(v) for v in range(n)}
    probabilities[n] = q
    return circuit, probabilities


@pytest.fixture(scope="module")
def chain():
    return decision_chain(DEPTH)


def test_decision_chain_passes(chain):
    circuit, p = chain
    everything = product(DEPTH)
    assert circuit.size() == DEPTH
    assert near(circuit.wmc(p), everything)
    world = {v: True for v in p}
    assert circuit.evaluate(world)
    assert not circuit.evaluate({**world, DEPTH // 2: False})
    assert circuit.check_fbdd()
    assert circuit.check_decision_dnnf()

    reports = differentiate(circuit, p)
    for v in (0, DEPTH // 2, DEPTH - 1):
        assert near(reports[v].posterior, 1.0)
        assert near(reports[v].derivative, everything / p[v])

    explanation = most_probable_model(circuit, p)
    assert explanation.assignment == world
    assert near(explanation.probability, everything)


def test_decision_chain_top_k():
    # top_k_models runs one O(n) satisfiability loop per state it pushes
    # (≈ 2n for a chain), so it gets a shallower chain: still twice the
    # recursion limit.
    n = 2_000
    circuit, p = decision_chain(n)
    (only,) = top_k_models(circuit, p, 2)  # the chain has one model
    assert only.assignment == {v: True for v in p}
    assert near(only.probability, product(n))


def test_and_or_chain_passes():
    circuit, p = and_or_chain(DEPTH)
    q = p[DEPTH]
    everything = product(DEPTH)
    # f fails only when every x_v holds and z does not.
    total = 1.0 - everything * (1.0 - q)
    assert near(circuit.wmc(p), total)
    world = {v: True for v in p}
    assert circuit.evaluate(world)
    assert not circuit.evaluate({**world, DEPTH: False})
    assert circuit.evaluate({**world, 0: False, DEPTH: False})
    assert not circuit.check_decision_dnnf()  # it has ∨ nodes

    reports = differentiate(circuit, p)
    assert near(reports[DEPTH].derivative, everything)
    assert near(reports[DEPTH].posterior, q / total)
    for v in (0, DEPTH // 2, DEPTH - 1):
        assert near(reports[v].derivative, -(1.0 - q) * everything / p[v])


def test_and_or_chain_most_probable_model():
    # The (max, ×) pass smooths every ∨ by the modes of the variables its
    # child lacks, O(depth) work per level, so this chain is shallower.
    n = 1_200
    circuit, p = and_or_chain(n)
    explanation = most_probable_model(circuit, p)
    # Every x_v prefers true (p ≥ 2/3), and then z must hold.
    assert explanation.assignment == {v: True for v in p}
    assert near(explanation.probability, p[n] * product(n))


def test_deep_obdd_is_walked_by_loops():
    n = 3_000
    manager = OBDD(tuple(range(n)))
    root = TRUE_LEAF
    for level in reversed(range(n)):
        root = manager.make(level, FALSE_LEAF, root)
    p = {v: prior(v) for v in range(n)}
    world = {v: True for v in range(n)}
    circuit = manager.circuit
    assert circuit.size(root) == n
    assert near(circuit.wmc(p, root), product(n))
    assert circuit.evaluate(world, root)

    negated = manager.negate(root)
    assert circuit.size(negated) == n
    assert near(circuit.wmc(p, negated), 1.0 - product(n))
    assert not circuit.evaluate(world, negated)
    assert circuit.evaluate({**world, n - 1: False}, negated)
