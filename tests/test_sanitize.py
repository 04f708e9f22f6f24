"""Tests for the opt-in runtime sanitizer (repro.sanitize).

Each audit gets a *negative* test — a deliberately corrupted structure that
must trip the corresponding :class:`SanitizerError` subclass — and a
*positive* test showing healthy engine output sails through.
"""

from __future__ import annotations

import threading

import pytest

from repro.booleans.expr import BAnd, BOr, bnot, bvar
from repro.kc.circuits import FALSE_LEAF, TRUE_LEAF, Circuit, Decision
from repro.kc.obdd import FALSE_NODE, TRUE_NODE, OBDD, compile_obdd
from repro.sanitize import (
    BoundsOrderError,
    CircuitInvariantError,
    KernelTableError,
    LockOrderError,
    OrderViolationError,
    ProbabilityDomainError,
    RankedLock,
    TOLERANCE,
    assert_lock_order,
    audit_kernel,
    check_bounds,
    check_circuit,
    check_obdd,
    check_probability,
    prodb_sanitize,
    sanitize_enabled,
)
from repro.wmc.dpll import compile_decision_dnnf, compile_fbdd


@pytest.fixture
def sanitized():
    """Enable the sanitizer for one test, restoring the previous state."""
    previous = prodb_sanitize(True)
    yield
    prodb_sanitize(previous)


def test_toggle_returns_previous_state():
    first = prodb_sanitize(True)
    try:
        assert sanitize_enabled()
        assert prodb_sanitize(False) is True
        assert not sanitize_enabled()
    finally:
        prodb_sanitize(first)


# -- circuits ----------------------------------------------------------------


def test_corrupted_fbdd_repeated_variable_trips(sanitized):
    circuit = Circuit()
    inner = circuit.decision(1, FALSE_LEAF, TRUE_LEAF)
    circuit.root = circuit.decision(1, inner, FALSE_LEAF)
    with pytest.raises(CircuitInvariantError):
        check_circuit(circuit, "fbdd")


def test_overlapping_and_children_trip_decision_dnnf(sanitized):
    circuit = Circuit()
    a = circuit.decision(2, FALSE_LEAF, TRUE_LEAF)
    b = circuit.decision(2, TRUE_LEAF, FALSE_LEAF)
    circuit.root = circuit.conjoin([a, b])
    with pytest.raises(CircuitInvariantError):
        check_circuit(circuit, "decision-dnnf")


def test_nondeterministic_or_trips_d_dnnf(sanitized):
    circuit = Circuit()
    circuit.root = circuit.disjoin(
        [circuit.literal(1, True), circuit.literal(2, True)]
    )
    with pytest.raises(CircuitInvariantError):
        check_circuit(circuit, "d-dnnf")


def test_child_numbered_after_its_parent_trips(sanitized):
    # Every pass walks the arena in id order, children first; a node
    # appended by hand that points at a later id breaks that order.
    circuit = Circuit()
    leaf = circuit.decision(1, FALSE_LEAF, TRUE_LEAF)
    circuit.nodes.append(Decision(2, leaf, len(circuit.nodes) + 1))
    circuit.nodes.append(Decision(3, FALSE_LEAF, TRUE_LEAF))
    circuit.root = len(circuit.nodes) - 2
    with pytest.raises(CircuitInvariantError, match="children-first"):
        check_circuit(circuit, "fbdd")


def test_unknown_kind_rejected(sanitized):
    with pytest.raises(ValueError):
        check_circuit(Circuit(), "obdd")


def test_checks_are_noops_when_disabled():
    previous = prodb_sanitize(False)
    try:
        circuit = Circuit()
        inner = circuit.decision(1, FALSE_LEAF, TRUE_LEAF)
        circuit.root = circuit.decision(1, inner, FALSE_LEAF)
        check_circuit(circuit, "fbdd")  # must not raise
        check_probability(7.0)
        check_bounds(0.9, 0.1)
    finally:
        prodb_sanitize(previous)


def test_compiled_circuits_pass_the_audit(sanitized):
    expr = BOr.of((BAnd.of((bvar(0), bvar(1))), BAnd.of((bvar(1), bvar(2)))))
    probabilities = {0: 0.5, 1: 0.8, 2: 0.3}
    # compile_* already run the hook internally; re-check explicitly too.
    check_circuit(compile_decision_dnnf(expr, probabilities).circuit, "decision-dnnf")
    check_circuit(compile_fbdd(expr, probabilities).circuit, "fbdd")


# -- OBDD order --------------------------------------------------------------


def test_obdd_order_violation_trips(sanitized):
    manager = OBDD(order=(0, 1))
    inner = manager.make(0, FALSE_NODE, TRUE_NODE)
    root = manager.make(1, inner, TRUE_NODE)  # level 1 above level 0
    with pytest.raises(OrderViolationError):
        check_obdd(manager, root)


def test_compiled_obdd_respects_order(sanitized):
    expr = BOr.of((bvar(0), BAnd.of((bvar(1), bnot(bvar(2))))))
    manager, root = compile_obdd(expr, order=(2, 0, 1))
    check_obdd(manager, root)  # compile_obdd also runs this internally


# -- probability domain ------------------------------------------------------


def test_probability_domain(sanitized):
    check_probability(0.0)
    check_probability(1.0)
    check_probability(1.0 + TOLERANCE / 2)  # rounding slack allowed
    with pytest.raises(ProbabilityDomainError):
        check_probability(1.5, context="unit test")
    with pytest.raises(ProbabilityDomainError):
        check_probability(-0.1)


def test_bounds_sandwich(sanitized):
    check_bounds(0.2, 0.8)
    check_bounds(0.5, 0.5)
    with pytest.raises(BoundsOrderError):
        check_bounds(0.9, 0.1, context="unit test")
    with pytest.raises(ProbabilityDomainError):
        check_bounds(-0.5, 0.5)  # bound outside [0, 1] reported first


# -- kernel unique table -----------------------------------------------------


class _FakeManager:
    def __init__(self, unique):
        self.unique = unique


def test_kernel_audit_passes_on_live_kernel(sanitized):
    # The unique table holds nodes weakly: the audit counts only live ones.
    live = BAnd.of((bvar(0), bnot(bvar(1))))
    assert audit_kernel() >= 2
    assert live.variables() == {0, 1}


def test_kernel_audit_force_runs_when_disabled():
    previous = prodb_sanitize(False)
    try:
        live = bvar(0)  # held: the unique table keeps nodes weakly
        assert audit_kernel() == 0  # disabled: no-op
        assert audit_kernel(force=True) >= 1
        assert live.variables() == {0}
    finally:
        prodb_sanitize(previous)


def test_poisoned_key_trips_kernel_audit(sanitized):
    node = bvar(123)
    fake = _FakeManager({("v", 999): node})
    with pytest.raises(KernelTableError):
        audit_kernel(manager=fake)


def test_tabled_constant_trips_kernel_audit(sanitized):
    from repro.booleans.expr import B_TRUE

    fake = _FakeManager({("1",): B_TRUE})
    with pytest.raises(KernelTableError):
        audit_kernel(manager=fake)


# -- lock ordering -----------------------------------------------------------


def test_increasing_lock_ranks_allowed(sanitized):
    low = RankedLock(10, "low")
    high = RankedLock(20, "high")
    with low:
        with high:
            pass
    with high:  # independent chains reset the stack
        pass


def test_inverted_lock_ranks_trip(sanitized):
    low = RankedLock(10, "low")
    high = RankedLock(20, "high")
    with high:
        with pytest.raises(LockOrderError):
            low.acquire()
    # The failed acquisition must leave both locks usable.
    with low:
        with high:
            pass


def test_equal_rank_distinct_locks_trip(sanitized):
    first = RankedLock(10, "first")
    second = RankedLock(10, "second")
    with first:
        with pytest.raises(LockOrderError):
            second.acquire()


def test_reentrant_lock_may_reenter(sanitized):
    lock = RankedLock(20, "cache", reentrant=True)
    with lock:
        with lock:
            pass


def test_lock_order_ignored_when_disabled():
    previous = prodb_sanitize(False)
    try:
        low = RankedLock(10, "low")
        high = RankedLock(20, "high")
        with high:
            with low:  # would trip under the sanitizer
                pass
    finally:
        prodb_sanitize(previous)


def test_lock_ranks_are_per_thread(sanitized):
    high = RankedLock(20, "high")
    errors: list[BaseException] = []

    def other_thread():
        try:
            with RankedLock(10, "low"):
                pass
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    with high:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
    assert errors == []


def test_assert_lock_order(sanitized):
    assert_lock_order([10, 20, 30])
    with pytest.raises(LockOrderError):
        assert_lock_order([10, 10])
    with pytest.raises(LockOrderError):
        assert_lock_order([30, 20])


# -- end to end --------------------------------------------------------------


def test_engine_runs_clean_under_sanitizer(sanitized, small_db):
    """A full query through the façade trips no audit on healthy code."""
    from repro.core.pdb import ProbabilisticDatabase

    pdb = ProbabilisticDatabase(tid=small_db)
    answer = pdb.probability("R(x), S(x,y)")
    assert 0.0 <= answer.probability <= 1.0
