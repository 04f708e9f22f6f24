"""A classic reduced Ordered Binary Decision Diagram (OBDD) package.

A manager fixes a variable order and builds its diagrams as decision nodes
of one :class:`~repro.kc.circuits.Circuit`, ``manager.circuit``: the
circuit's unique table plus the lo == hi collapse make every diagram
*reduced*, so node counts are the canonical sizes that Theorem 7.1(i)
talks about: linear in the domain for hierarchical self-join-free CQs
under the right order, and ≥ (2ⁿ − 1)/n for non-hierarchical ones under
*every* order. Sizes, weighted counts and evaluation are the circuit's
own passes (``manager.circuit.size(root)``, ``.wmc(p, root)``, ...).

Construction from a Boolean expression uses the standard ``apply`` algorithm
with memoization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..booleans.expr import BAnd, BExpr, BFalse, BNot, BOr, BTrue, BVar
from ..sanitize import check_obdd
from .circuits import FALSE_LEAF, TRUE_LEAF, Circuit

FALSE_NODE = FALSE_LEAF
TRUE_NODE = TRUE_LEAF


@dataclass
class OBDD:
    """An OBDD manager over a fixed variable order."""

    order: tuple[int, ...]
    circuit: Circuit = field(init=False, repr=False)
    _level_of: dict[int, int] = field(init=False, repr=False)
    _apply_cache: dict[tuple, int] = field(init=False, repr=False)
    _expr_cache: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.order = tuple(self.order)
        if len(set(self.order)) != len(self.order):
            raise ValueError("variable order contains duplicates")
        self.circuit = Circuit()
        self._level_of = {v: i for i, v in enumerate(self.order)}
        self._apply_cache = {}
        self._expr_cache = {}

    # -- node management ----------------------------------------------------

    def level_of(self, var: int) -> int:
        return self._level_of[var]

    def make(self, level: int, lo: int, hi: int) -> int:
        """The reduced node testing the variable at *level*."""
        return self.circuit.decision(self.order[level], lo, hi)

    def variable(self, var: int) -> int:
        """The single-variable diagram for *var*."""
        return self.make(self._level_of[var], FALSE_NODE, TRUE_NODE)

    def _level(self, index: int) -> int:
        """The level of a node; the leaves sit below every variable."""
        if index in (FALSE_NODE, TRUE_NODE):
            return len(self.order)
        return self._level_of[self.circuit.nodes[index].var]

    # -- boolean operations ---------------------------------------------------

    def apply(self, op: Callable[[bool, bool], bool], f: int, g: int) -> int:
        """Shannon-style synchronized recursion over two diagrams."""
        name = getattr(op, "__name__", repr(op))
        cache_key = ("apply", name, f, g)
        cached = self._apply_cache.get(cache_key)
        if cached is not None:
            return cached
        leaves = (FALSE_NODE, TRUE_NODE)
        if f in leaves and g in leaves:
            result = TRUE_NODE if op(f == TRUE_NODE, g == TRUE_NODE) else FALSE_NODE
        else:
            nodes = self.circuit.nodes
            f_level, g_level = self._level(f), self._level(g)
            level = min(f_level, g_level)
            f_lo, f_hi = (nodes[f].lo, nodes[f].hi) if f_level == level else (f, f)
            g_lo, g_hi = (nodes[g].lo, nodes[g].hi) if g_level == level else (g, g)
            result = self.make(
                level, self.apply(op, f_lo, g_lo), self.apply(op, f_hi, g_hi)
            )
        self._apply_cache[cache_key] = result
        return result

    def conjoin(self, f: int, g: int) -> int:
        return self.apply(_and, f, g)

    def disjoin(self, f: int, g: int) -> int:
        return self.apply(_or, f, g)

    def negate(self, f: int) -> int:
        """The complement of *f*: one loop over its nodes, children first."""
        cache_key = ("neg", f)
        cached = self._apply_cache.get(cache_key)
        if cached is not None:
            return cached
        flipped = {FALSE_NODE: TRUE_NODE, TRUE_NODE: FALSE_NODE}
        for index in self.circuit.reachable(f):
            node = self.circuit.nodes[index]
            flipped[index] = self.circuit.decision(node.var, flipped[node.lo], flipped[node.hi])
        self._apply_cache[cache_key] = flipped[f]
        return flipped[f]

    def from_expr(self, expr: BExpr) -> int:
        """Compile a Boolean expression into a diagram root.

        Memoized by the expression's interned node id, so the shared
        literal/clause nodes of hash-consed DNF lineages compile once per
        manager instead of once per occurrence.
        """
        if isinstance(expr, BTrue):
            return TRUE_NODE
        if isinstance(expr, BFalse):
            return FALSE_NODE
        cached = self._expr_cache.get(expr.nid)
        if cached is not None:
            return cached
        if isinstance(expr, BVar):
            result = self.variable(expr.index)
        elif isinstance(expr, BNot):
            result = self.negate(self.from_expr(expr.sub))
        elif isinstance(expr, BAnd):
            result = TRUE_NODE
            for part in expr.parts:
                result = self.conjoin(result, self.from_expr(part))
                if result == FALSE_NODE:
                    break
        elif isinstance(expr, BOr):
            result = FALSE_NODE
            for part in expr.parts:
                result = self.disjoin(result, self.from_expr(part))
                if result == TRUE_NODE:
                    break
        else:
            raise TypeError(f"unknown node {expr!r}")
        self._expr_cache[expr.nid] = result
        return result


def _and(a: bool, b: bool) -> bool:
    return a and b


def _or(a: bool, b: bool) -> bool:
    return a or b


def compile_obdd(
    expr: BExpr, order: Optional[Sequence[int]] = None
) -> tuple[OBDD, int]:
    """Compile *expr* into a fresh manager; default order is by variable index."""
    variables = sorted(expr.variables())
    chosen = tuple(order) if order is not None else tuple(variables)
    missing = set(variables) - set(chosen)
    if missing:
        raise ValueError(f"order is missing variables: {sorted(missing)}")
    manager = OBDD(chosen)
    root = manager.from_expr(expr)
    # Sanitizer (no-op unless REPRO_SANITIZE=1): every edge must descend
    # strictly in the manager's variable order.
    check_obdd(manager, root)
    return manager, root


def best_obdd_size(expr: BExpr, orders: Sequence[Sequence[int]]) -> int:
    """The minimum OBDD size over a set of candidate orders."""
    best: Optional[int] = None
    for order in orders:
        manager, root = compile_obdd(expr, order)
        size = manager.circuit.size(root)
        if best is None or size < best:
            best = size
    if best is None:
        raise ValueError("no orders supplied")
    return best
