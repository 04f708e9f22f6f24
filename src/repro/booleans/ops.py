"""Operations on Boolean expressions: conditioning, components, statistics.

These are the primitives of the DPLL-style algorithms of Sec. 7:

* :func:`condition` computes the restriction F[X := b] (used by the Shannon
  expansion, rule (11));
* :func:`independent_factors` splits a conjunction (or disjunction) into
  variable-disjoint components (rule (12) and its dual);
* :func:`variable_frequencies` supports branching heuristics.

All three lean on the hash-consing kernel (:mod:`repro.booleans.kernel`):
subtrees that do not mention an assigned variable are returned *unchanged*
(same object — the per-node variable sets make the check O(1)), and a
restriction memoizes by node id within the call, so a subformula shared
inside the expression is restricted once.
"""

from __future__ import annotations

from typing import Mapping

from .expr import (
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
)


def condition(expr: BExpr, assignment: Mapping[int, bool]) -> BExpr:
    """The restriction of *expr* under a partial assignment, simplified.

    Unassigned variables remain symbolic. Simplification is the
    constructor-level one (unit laws, complement law, dedup). Subtrees that
    mention none of the assigned variables come back unchanged — the very
    same interned object, not a rebuilt copy.
    """
    assigned = frozenset(assignment)
    memo: dict[int, BExpr] = {}

    def walk(node: BExpr) -> BExpr:
        if assigned.isdisjoint(node._vars):
            return node
        cached = memo.get(node.nid)
        if cached is not None:
            return cached
        if isinstance(node, BVar):
            result: BExpr = B_TRUE if assignment[node.index] else B_FALSE
        elif isinstance(node, BNot):
            result = bnot(walk(node.sub))
        elif isinstance(node, BAnd):
            result = BAnd.of(walk(p) for p in node.parts)
        elif isinstance(node, BOr):
            result = BOr.of(walk(p) for p in node.parts)
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[node.nid] = result
        return result

    if isinstance(expr, (BTrue, BFalse)) or not assignment:
        return expr
    return walk(expr)


def cofactors(expr: BExpr, var: int) -> tuple[BExpr, BExpr]:
    """The pair (F[var := 0], F[var := 1]) used by the Shannon expansion."""
    return condition(expr, {var: False}), condition(expr, {var: True})


def independent_factors(expr: BExpr) -> list[BExpr]:
    """Split into variable-disjoint factors (connected components).

    For a conjunction F = F₁ ∧ F₂ with disjoint variables the factors are
    independent events (rule (12)); for a disjunction the dual independent-or
    applies. A node that is neither, or whose parts all share variables,
    comes back as a single factor.
    """
    if not isinstance(expr, (BAnd, BOr)):
        return [expr]
    parts = expr.parts
    n = len(parts)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index_of_var: dict[int, int] = {}
    for i, part in enumerate(parts):
        for v in part._vars:
            j = index_of_var.get(v)
            if j is None:
                index_of_var[v] = i
            else:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, list[BExpr]] = {}
    for i, part in enumerate(parts):
        groups.setdefault(find(i), []).append(part)
    if len(groups) == 1:
        return [expr]
    builder = BAnd.of if isinstance(expr, BAnd) else BOr.of
    return [builder(group) for group in groups.values()]


def variable_frequencies(expr: BExpr) -> dict[int, int]:
    """Occurrence counts per variable (for branching heuristics)."""
    counts: dict[int, int] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BVar):
            counts[node.index] = counts.get(node.index, 0) + 1
        else:
            stack.extend(node.children())
    return counts


def most_frequent_variable(expr: BExpr) -> int:
    """The variable with the most occurrences (ties broken by index)."""
    counts = variable_frequencies(expr)
    if not counts:
        raise ValueError("expression has no variables")
    return max(counts, key=lambda v: (counts[v], -v))


def is_positive(expr: BExpr) -> bool:
    """True when the expression contains no negation."""
    return not any(isinstance(node, BNot) for node in expr.walk())


def substitute_exprs(expr: BExpr, mapping: Mapping[int, BExpr]) -> BExpr:
    """Replace variables by whole expressions (used by gadget constructions)."""
    if isinstance(expr, (BTrue, BFalse)):
        return expr
    if isinstance(expr, BVar):
        return mapping.get(expr.index, expr)
    if isinstance(expr, BNot):
        return bnot(substitute_exprs(expr.sub, mapping))
    if isinstance(expr, BAnd):
        return BAnd.of(substitute_exprs(p, mapping) for p in expr.parts)
    if isinstance(expr, BOr):
        return BOr.of(substitute_exprs(p, mapping) for p in expr.parts)
    raise TypeError(f"unknown node {expr!r}")
