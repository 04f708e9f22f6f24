"""Normal forms: DNF and CNF views of Boolean expressions.

The lineage of a UCQ is naturally a positive DNF; the Karp–Luby estimator
(:mod:`repro.wmc.karp_luby`) and the lower-bound construction of Theorem 6.1
(which needs per-variable DNF occurrence counts) both consume the clause view
produced here.

Clauses are represented as ``frozenset`` of signed literals: a literal is
``+index + 1`` for a positive occurrence and ``-(index + 1)`` for a negated
one (the shift avoids the ambiguous literal 0).
"""

from __future__ import annotations

from typing import Iterable, Optional

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

Clause = frozenset[int]


class FormSizeExceeded(RuntimeError):
    """Raised when a normal form would exceed the configured clause budget."""


def literal(index: int, positive: bool = True) -> int:
    """Encode a literal for variable *index*."""
    return (index + 1) if positive else -(index + 1)


def literal_var(lit: int) -> int:
    """The variable index of an encoded literal."""
    return abs(lit) - 1


def literal_sign(lit: int) -> bool:
    """True for a positive literal."""
    return lit > 0


def to_nnf(expr: BExpr) -> BExpr:
    """Push negations down to the variables."""

    def walk(node: BExpr, negate: bool) -> BExpr:
        if isinstance(node, BTrue):
            return B_FALSE if negate else B_TRUE
        if isinstance(node, BFalse):
            return B_TRUE if negate else B_FALSE
        if isinstance(node, BVar):
            return bnot(node) if negate else node
        if isinstance(node, BNot):
            return walk(node.sub, not negate)
        if isinstance(node, BAnd):
            parts = tuple(walk(p, negate) for p in node.parts)
            return BOr.of(parts) if negate else BAnd.of(parts)
        if isinstance(node, BOr):
            parts = tuple(walk(p, negate) for p in node.parts)
            return BAnd.of(parts) if negate else BOr.of(parts)
        raise TypeError(f"unknown node {node!r}")

    return walk(expr, False)


def to_dnf(expr: BExpr, max_clauses: int = 100_000) -> list[Clause]:
    """The DNF clause list of *expr* (each clause a set of literals).

    Contradictory clauses are dropped and subsumed clauses removed. Raises
    :class:`FormSizeExceeded` beyond *max_clauses* intermediate clauses.
    """
    clauses = _clauses(to_nnf(expr), conjunctive=False, max_clauses=max_clauses)
    return _prune_subsumed(clauses)


def to_cnf(expr: BExpr, max_clauses: int = 100_000) -> list[Clause]:
    """The CNF clause list of *expr* (each clause a disjunction of literals)."""
    clauses = _clauses(to_nnf(expr), conjunctive=True, max_clauses=max_clauses)
    return _prune_subsumed(clauses)


def _clauses(expr: BExpr, conjunctive: bool, max_clauses: int) -> list[Clause]:
    """Clause list: DNF terms (conjunctive=False) or CNF clauses (True)."""
    # For DNF: Or distributes clause lists by union, And takes cross products.
    # For CNF the roles swap; unify by flipping which node type multiplies.
    cross_node, merge_node = (BOr, BAnd) if conjunctive else (BAnd, BOr)
    empty_means_true = not conjunctive
    sizes: dict[int, Optional[int]] = {}

    def size(node: BExpr) -> Optional[int]:
        """How many clauses ``walk(node)`` returns — a count past
        *max_clauses* where it raises — or None when the subtree has a
        negation. Without one no clause is contradictory, so a merge node
        sums its parts' counts and a cross node multiplies them."""
        if isinstance(node, BVar):
            return 1
        if isinstance(node, (BTrue, BFalse)):
            return 1 if isinstance(node, BTrue) == empty_means_true else 0
        if not isinstance(node, (BAnd, BOr)):
            return None
        if node.nid in sizes:
            return sizes[node.nid]
        cross = isinstance(node, cross_node)
        total = 1 if cross else 0
        for part in node.parts:
            n = size(part)
            if n is None:
                sizes[node.nid] = None
                return None
            if not (cross and total == 0):  # walk stops once the product is empty
                total = total * n if cross else total + n
            if total > max_clauses:
                break
        sizes[node.nid] = total
        return total

    def walk(node: BExpr) -> list[Clause]:
        if isinstance(node, BVar):
            return [frozenset({literal(node.index, True)})]
        if isinstance(node, BNot):
            assert isinstance(node.sub, BVar), "input must be NNF"
            return [frozenset({literal(node.sub.index, False)})]
        if isinstance(node, (BTrue, BFalse)):
            # In DNF: true = one empty clause, false = no clauses; CNF dual.
            if isinstance(node, BTrue) == empty_means_true:
                return [frozenset()]
            return []
        expected = size(node)
        if expected is not None and expected > max_clauses:
            raise FormSizeExceeded(f"more than {max_clauses} clauses")
        if isinstance(node, merge_node):
            out: list[Clause] = []
            for part in node.parts:
                out.extend(walk(part))
                if len(out) > max_clauses:
                    raise FormSizeExceeded(f"more than {max_clauses} clauses")
            return out
        if isinstance(node, cross_node):
            acc: list[Clause] = [frozenset()]
            for part in node.parts:
                if not acc:
                    break
                rights = walk(part)
                nxt: list[Clause] = []
                for left in acc:
                    for right in rights:
                        combined = left | right
                        if _contradictory(combined):
                            continue
                        nxt.append(combined)
                        if len(nxt) > max_clauses:
                            raise FormSizeExceeded(
                                f"more than {max_clauses} clauses"
                            )
                acc = nxt
            return acc
        raise TypeError(f"unknown node {node!r}")

    return walk(expr)


def _contradictory(clause: Clause) -> bool:
    return any(-lit in clause for lit in clause)


def _prune_subsumed(clauses: Iterable[Clause]) -> list[Clause]:
    """Remove clauses that are supersets of another clause."""
    ordered = sorted(set(clauses), key=len)
    kept: list[Clause] = []
    for clause in ordered:
        if not any(k <= clause for k in kept):
            kept.append(clause)
    return kept


def from_dnf(clauses: Iterable[Clause]) -> BExpr:
    """Rebuild an expression from DNF clauses."""
    terms = []
    for clause in clauses:
        literals = [
            BVar(literal_var(lit)) if literal_sign(lit) else bnot(BVar(literal_var(lit)))
            for lit in sorted(clause)
        ]
        terms.append(BAnd.of(literals))
    return BOr.of(terms)


def from_cnf(clauses: Iterable[Clause]) -> BExpr:
    """Rebuild an expression from CNF clauses."""
    terms = []
    for clause in clauses:
        literals = [
            BVar(literal_var(lit)) if literal_sign(lit) else bnot(BVar(literal_var(lit)))
            for lit in sorted(clause)
        ]
        terms.append(BOr.of(literals))
    return BAnd.of(terms)


def dnf_occurrence_counts(clauses: Iterable[Clause]) -> dict[int, int]:
    """How many DNF clauses mention each variable.

    This is the count *k* used by the oblivious lower bound of Theorem 6.1:
    the probability of tuple *t* is replaced by ``1 - (1 - p)^(1/k)``.
    """
    counts: dict[int, int] = {}
    for clause in clauses:
        for lit in clause:
            var = literal_var(lit)
            counts[var] = counts.get(var, 0) + 1
    return counts
