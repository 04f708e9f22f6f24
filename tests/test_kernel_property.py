"""Property-based tests (hypothesis) for the hash-consing Boolean kernel.

Three invariants:

* interning is canonical — structurally equal formulas are the same object
  with the same node id;
* the interned DPLL loop (with the independent-or off, as the legacy
  counter had it) agrees **bit-for-bit** with a faithful replica of
  the pre-kernel path (structural-tuple cache keys, rebuild-everything
  conditioning, walk-based variable sets) — the kernel changes how results
  are found, never which results are found;
* ``condition``/``cofactors`` memoization never changes results: repeated
  calls return the identical object, and that object matches semantic
  restriction on every assignment.
"""

import itertools

from hypothesis import given, settings

from repro.booleans.expr import (
    B_FALSE,
    B_TRUE,
    BAnd,
    BExpr,
    BFalse,
    BNot,
    BOr,
    BTrue,
    BVar,
    bnot,
    evaluate,
)
from repro.booleans.ops import (
    cofactors,
    condition,
    independent_factors,
    most_frequent_variable,
)
from repro.wmc.dpll import DPLLCounter

from test_property_based import VARS, assignments, boolean_exprs, probability_maps


# -- a faithful replica of the pre-kernel primitives --------------------------
#
# These reproduce the seed implementations verbatim in behaviour: conditioning
# rebuilds every subtree through the smart constructors with a memo keyed by
# nested structural tuples, variable sets are recomputed by walking, and the
# DPLL cache hashes full structural keys. Because the smart constructors are
# shared, both paths canonicalize identically, so probabilities must agree to
# full float precision.


def legacy_variables(expr: BExpr) -> frozenset:
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BVar):
            out.add(node.index)
        else:
            stack.extend(node.children())
    return frozenset(out)


def legacy_condition(expr: BExpr, assignment: dict) -> BExpr:
    memo: dict[tuple, BExpr] = {}

    def walk(node: BExpr) -> BExpr:
        key = node.key()
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, (BTrue, BFalse)):
            result: BExpr = node
        elif isinstance(node, BVar):
            if node.index in assignment:
                result = B_TRUE if assignment[node.index] else B_FALSE
            else:
                result = node
        elif isinstance(node, BNot):
            result = bnot(walk(node.sub))
        elif isinstance(node, BAnd):
            result = BAnd.of(walk(p) for p in node.parts)
        else:
            result = BOr.of(walk(p) for p in node.parts)
        memo[key] = result
        return result

    return walk(expr)


def legacy_independent_factors(expr: BExpr) -> list:
    if not isinstance(expr, (BAnd, BOr)):
        return [expr]
    parts = expr.parts
    part_vars = [legacy_variables(p) for p in parts]
    n = len(parts)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index_of_var: dict[int, int] = {}
    for i, pv in enumerate(part_vars):
        for v in pv:
            j = index_of_var.get(v)
            if j is None:
                index_of_var[v] = i
            else:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, list] = {}
    for i, part in enumerate(parts):
        groups.setdefault(find(i), []).append(part)
    if len(groups) == 1:
        return [expr]
    builder = BAnd.of if isinstance(expr, BAnd) else BOr.of
    return [builder(group) for group in groups.values()]


def legacy_most_frequent_variable(expr: BExpr) -> int:
    counts: dict[int, int] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BVar):
            counts[node.index] = counts.get(node.index, 0) + 1
        else:
            stack.extend(node.children())
    return max(counts, key=lambda v: (counts[v], -v))


def legacy_dpll(expr: BExpr, probabilities: dict) -> float:
    """The seed DPLL counter: tuple-key cache, rebuild-everything cofactors."""
    cache: dict[tuple, float] = {}

    def count(formula: BExpr) -> float:
        if isinstance(formula, BTrue):
            return 1.0
        if isinstance(formula, BFalse):
            return 0.0
        key = formula.key()
        cached = cache.get(key)
        if cached is not None:
            return cached
        factors = (
            legacy_independent_factors(formula)
            if isinstance(formula, BAnd)
            else [formula]
        )
        if len(factors) > 1:
            probability = 1.0
            for factor in factors:
                probability *= count(factor)
        else:
            var = legacy_most_frequent_variable(formula)
            low = legacy_condition(formula, {var: False})
            high = legacy_condition(formula, {var: True})
            p = probabilities[var]
            probability = (1.0 - p) * count(low) + p * count(high)
        cache[key] = probability
        return probability

    return count(expr)


def structural_clone(expr: BExpr) -> BExpr:
    """Rebuild the expression bottom-up through the public constructors."""
    if isinstance(expr, (BTrue, BFalse)):
        return expr
    if isinstance(expr, BVar):
        # Deliberately re-invokes the raw constructor to exercise interning.
        return BVar(expr.index)  # prodb-lint: allow-construct
    if isinstance(expr, BNot):
        return bnot(structural_clone(expr.sub))
    parts = [structural_clone(p) for p in reversed(expr.parts)]
    return BAnd.of(parts) if isinstance(expr, BAnd) else BOr.of(parts)


# -- properties ---------------------------------------------------------------


@given(boolean_exprs())
@settings(max_examples=150, deadline=None)
def test_interning_is_canonical(expr):
    clone = structural_clone(expr)
    assert clone is expr
    assert clone.nid == expr.nid
    assert hash(clone) == hash(expr)


@given(boolean_exprs())
@settings(max_examples=150, deadline=None)
def test_cached_variable_sets_match_walk(expr):
    assert expr.variables() == legacy_variables(expr)


@given(boolean_exprs(), probability_maps())
@settings(max_examples=80, deadline=None)
def test_dpll_agrees_bitwise_with_legacy_path(expr, probabilities):
    # identical branching, identical canonicalization ⇒ identical arithmetic;
    # only the kernel loop without the independent-or branches as the
    # legacy counter did
    probability, _ = DPLLCounter()._count_formula(expr, probabilities, or_split=False)
    assert probability == legacy_dpll(expr, probabilities)


@given(boolean_exprs(), assignments())
@settings(max_examples=100, deadline=None)
def test_condition_matches_legacy_and_memoization_is_stable(expr, assignment):
    partial = {v: b for v, b in assignment.items() if v % 2 == 0}
    first = condition(expr, partial)
    assert first is condition(expr, partial)  # memoized, same object
    assert first is legacy_condition(expr, partial)  # same canonical node
    # semantic restriction agrees on every completion
    free = sorted(expr.variables() - set(partial))
    for bits in itertools.product((False, True), repeat=len(free)):
        total = dict(partial)
        total.update(zip(free, bits))
        assert evaluate(first, total) == evaluate(expr, total)


@given(boolean_exprs())
@settings(max_examples=100, deadline=None)
def test_cofactors_memoized_and_identical(expr):
    variables = sorted(expr.variables())
    if not variables:
        return
    var = variables[0]
    lo1, hi1 = cofactors(expr, var)
    lo2, hi2 = cofactors(expr, var)
    assert lo1 is lo2 and hi1 is hi2
    assert lo1 is legacy_condition(expr, {var: False})
    assert hi1 is legacy_condition(expr, {var: True})


@given(boolean_exprs())
@settings(max_examples=100, deadline=None)
def test_independent_factors_match_legacy(expr):
    got = independent_factors(expr)
    expected = legacy_independent_factors(expr)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))
    if expr.variables():
        assert most_frequent_variable(expr) == legacy_most_frequent_variable(expr)
