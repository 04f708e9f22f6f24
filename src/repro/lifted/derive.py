"""Lifted derivations: the rules of Sec. 5, chosen once per query shape.

By Thms. 4.1 and 5.1 whether the rules lift a UCQ is a property of its
syntax, so :func:`derive` decides it without data. The rules, in order:
independent-∨/∧ (rule 7), merged or single separators (rule 8), and
inclusion/exclusion on both connectives (rule 10), whose equivalent terms
merge coefficients first, so a #P-hard term with net coefficient 0 is never
derived (Sec. 5's cancellation). Constants are :class:`Slot` s: the query's
own are ``0 … k−1``, and a separator binds a new one to each domain value,
with a child per equality class of that value — equal to a slot its
subquery mentions, or fresh (printed ``$n``) — so a verdict holds on every
database. Verdicts are cached in a bounded ``lru_cache`` keyed by the
query's shape: predicates, variables and constants renamed by first
occurrence (so the constants' equality pattern is part of it).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from ..logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..logic.formulas import Atom
from ..logic.terms import Const, Term, Var
from .errors import NonLiftableError

Query = Union[ConjunctiveQuery, UnionOfConjunctiveQueries]

#: Distinct query shapes whose derivation (or verdict) is kept.
SHAPE_CACHE_SIZE = 1024


@dataclass(frozen=True, order=True)
class Slot:
    """A constant placeholder, bound to a domain value at evaluation."""

    index: int

    def __str__(self) -> str:
        return f"${self.index}"


@dataclass(eq=False)
class Node:
    """A rule applied to *query* (in slot form); its value depends on the data
    and the binding of ``slots`` only. ``children``: the parts of an
    ``independent-and``/``-or``; the terms of an ``inclusion-exclusion[-conj]``,
    weighted by ``coefficients``; for a ``separator``, one per slot in
    ``slots`` (a value equal to that slot's), then the fresh-value child, which
    binds ``bound``. A ``ground`` node has ``facts``: (predicate, slots)."""

    rule: str
    query: Query
    slots: tuple[int, ...]
    children: tuple["Node", ...] = ()
    detail: str = ""
    facts: tuple[tuple[int, tuple[int, ...]], ...] = ()
    separated: tuple[str, ...] = ()
    bound: int = 0
    coefficients: tuple[int, ...] = ()
    cancelled: int = 0

    def describe(self, variables: Mapping[str, str]) -> str:
        """The detail, with canonical variables renamed by *variables*."""
        names = ", ".join(variables.get(v, v) for v in self.separated)
        plural = "s" if len(self.separated) > 1 else ""
        return f"variable{plural} {names}" if names else self.detail


@dataclass(frozen=True)
class Derivation:
    """A shape's derivation with the names of one query: ``predicates``,
    ``constants`` and ``variables`` map the canonical ``P<i>``, slots and
    ``x<i>`` back. ``cache_hit``: the shape had been decided before."""

    root: Node
    predicates: tuple[str, ...]
    constants: tuple[object, ...]
    variables: Mapping[str, str]
    cache_hit: bool

    def render(self, query: Query, binding: Optional[Mapping[int, object]] = None) -> Query:
        """*query* in this query's names; unbound slots (*binding* defaults to
        the query's own constants) stay ``$n``."""
        values = dict(enumerate(self.constants)) if binding is None else binding
        return _render(query, self.predicates, values, self.variables)

    def lines(self) -> list[str]:
        """One indented ``[rule] subquery — detail`` line per rule node; a
        node shared by two parents is expanded once, then marked as above."""
        out: list[str] = []
        seen: set[int] = set()

        def visit(node: Node, depth: int) -> None:
            detail, repeat = node.describe(self.variables), id(node) in seen
            seen.add(id(node))
            out.append(
                f"{'  ' * depth}[{node.rule}] {self.render(node.query)}"
                + (f" — {detail}" if detail else "")
                + (" (as above)" if repeat else "")
            )
            for child in () if repeat else node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return out


def derive(query: Query, inclusion_exclusion: bool = True) -> Derivation:
    """The lifted derivation of *query*, or :class:`NonLiftableError` naming
    the stuck subquery in the query's own names. Without
    *inclusion_exclusion* only the basic rules remain (the E5 ablation)."""
    if isinstance(query, ConjunctiveQuery):
        query = UnionOfConjunctiveQueries((query,))
    predicates: dict[str, str] = {}
    variables: dict[Var, Var] = {}
    constants: dict[object, Const] = {}

    def term(t: Term) -> Term:
        if isinstance(t, Var):
            return variables.setdefault(t, Var(f"x{len(variables)}"))
        return constants.setdefault(t.value, Const(Slot(len(constants))))

    shape = _map(query, lambda p: predicates.setdefault(p, f"P{len(predicates)}"), term)
    misses = _derive_shape.cache_info().misses
    decided = _derive_shape(shape, inclusion_exclusion)
    hit = _derive_shape.cache_info().misses == misses
    names = {renamed.name: var.name for var, renamed in variables.items()}
    if isinstance(decided, NonLiftableError):
        values = dict(enumerate(constants))
        stuck = _render(decided.subquery, tuple(predicates), values, names)
        raise NonLiftableError(f"{decided}: {stuck}", subquery=stuck, cache_hit=hit)
    return Derivation(decided, tuple(predicates), tuple(constants), names, hit)


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _derive_shape(shape: Query, inclusion_exclusion: bool) -> Union[Node, NonLiftableError]:
    try:
        return _Deriver(inclusion_exclusion, len(_slots(shape))).node(shape)
    except NonLiftableError as error:
        return error.with_traceback(None)  # a verdict, cached like a derivation


derive.cache_info = _derive_shape.cache_info  # type: ignore[attr-defined]
derive.cache_clear = _derive_shape.cache_clear  # type: ignore[attr-defined]


def _map(query: Query, predicate: Callable[[str], str], term: Callable[[Term], Term]) -> Query:
    def cq(q: ConjunctiveQuery) -> ConjunctiveQuery:
        return ConjunctiveQuery(
            tuple(Atom(predicate(a.predicate), tuple(term(t) for t in a.args)) for a in q.atoms)
        )

    if isinstance(query, ConjunctiveQuery):
        return cq(query)
    return UnionOfConjunctiveQueries(tuple(cq(q) for q in query.disjuncts))


def _render(
    query: object, predicates: Sequence[str], values: Mapping, variables: Mapping[str, str]
) -> Query:
    def term(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(variables.get(t.name, t.name))
        return Const(values[_slot(t)]) if _slot(t) in values else t

    assert isinstance(query, (ConjunctiveQuery, UnionOfConjunctiveQueries))
    return _map(query, lambda p: predicates[int(p[1:])], term)


def _slot(term: Term) -> int:
    assert isinstance(term, Const) and isinstance(term.value, Slot)
    return term.value.index


def _slots(query: Query) -> tuple[int, ...]:
    disjuncts = query.disjuncts if isinstance(query, UnionOfConjunctiveQueries) else (query,)
    return tuple(sorted({_slot(c) for q in disjuncts for c in q.constants}))


class _Deriver:
    """Builds one shape's derivation; equivalent subqueries share a node."""

    def __init__(self, inclusion_exclusion: bool, roots: int) -> None:
        self.inclusion_exclusion = inclusion_exclusion
        self.roots = roots  # slots below this are the query's constants
        self.memo: dict[tuple, Node] = {}
        self.in_progress: set[tuple] = set()

    def node(self, query: Query) -> Node:
        """The node of *query*, minimized first; equivalent queries share it."""
        if isinstance(query, UnionOfConjunctiveQueries):
            query = query.minimize()
            query = query.disjuncts[0] if len(query) == 1 else query
        else:
            query = query.core()
        key = (type(query).__name__, query.canonical_key())
        if key not in self.memo:
            self.memo[key] = (
                self._cq(query, key) if isinstance(query, ConjunctiveQuery) else self._ucq(query, key)
            )
        return self.memo[key]

    def _ucq(self, query: UnionOfConjunctiveQueries, key: tuple) -> Node:
        groups = _symbol_components(query.disjuncts)
        if len(groups) > 1:
            parts = tuple(self.node(UnionOfConjunctiveQueries(g)) for g in groups)
            return Node("independent-or", query, _slots(query), parts, f"{len(groups)} groups")
        separator = _merged_separator(query.disjuncts)
        if separator is not None:
            return self._separator(query, query.disjuncts, separator)
        if not self.inclusion_exclusion:
            raise NonLiftableError("inclusion/exclusion disabled; basic rules stuck on", query)
        conjoin = ConjunctiveQuery.conjoin
        return self._inclusion_exclusion(
            key, query, query.disjuncts, lambda subset: functools.reduce(conjoin, subset).core()
        )

    def _cq(self, query: ConjunctiveQuery, key: tuple) -> Node:
        slots = _slots(query)
        if all(atom.is_ground() for atom in query.atoms):
            facts = tuple((int(a.predicate[1:]), tuple(map(_slot, a.args))) for a in query.atoms)
            return Node("ground", query, slots, facts=facts)
        components = query.connected_components(by_symbols=True)
        if len(components) > 1:
            parts = tuple(self.node(c) for c in components)
            return Node("independent-and", query, slots, parts, f"{len(components)} components")
        separator = query.separator_variable()
        if separator is not None:
            return self._separator(query, (query,), (separator,))
        components = query.connected_components(by_symbols=False)
        if len(components) > 1 and self.inclusion_exclusion:
            # Rule (10) dual: P(⋀cᵢ) = Σ_{∅≠S} (−1)^{|S|+1} P(⋁_{i∈S} cᵢ) over
            # variable-disjoint components sharing symbols. Quantifiers merge
            # in the disjunction terms, which unlocks h₀ ∨ (h₁ ∧ h₂) (Q_W).
            return self._inclusion_exclusion(key, query, components, UnionOfConjunctiveQueries)
        raise NonLiftableError("no lifted rule applies to", query)

    def _separator(
        self, query: Query, disjuncts: Sequence[ConjunctiveQuery], separated: Sequence[Var]
    ) -> Node:
        """Rule (8): bind each disjunct's variable to each slot, then a fresh one."""
        slots = _slots(query)
        bound = max(slots[-1] + 1 if slots else 0, self.roots)
        children = tuple(
            self.node(
                UnionOfConjunctiveQueries(
                    tuple(q.substitute({v: Const(Slot(s))}) for q, v in zip(disjuncts, separated))
                )
            )
            for s in (*slots, bound)
        )
        names = tuple(v.name for v in separated)
        return Node("separator", query, slots, children, separated=names, bound=bound)

    def _inclusion_exclusion(
        self, key: tuple, query: Query, parts: Sequence, combine: Callable[[tuple], Query]
    ) -> Node:
        """Rule (10): Σ over ∅≠S⊆parts of (−1)^{|S|+1} P(combine(S)), equivalent
        terms merged first. A term leading back to *query* is a cycle: stuck."""
        if key in self.in_progress:
            raise NonLiftableError("cyclic inclusion/exclusion on", query)
        self.in_progress.add(key)
        try:
            by_key: dict = {}
            for size in range(1, len(parts) + 1):
                for subset in itertools.combinations(parts, size):
                    term = combine(subset)
                    term_key = term.canonical_key()
                    coefficient, representative = by_key.get(term_key, (0, term))
                    by_key[term_key] = (coefficient + (-1) ** (size + 1), representative)
            # Merge terms the canonical key failed to identify (large queries).
            merged: list[tuple[int, Query]] = []
            for coefficient, term in by_key.values():
                for i, (other_coefficient, other) in enumerate(merged):
                    if term.equivalent(other):
                        merged[i] = (other_coefficient + coefficient, other)
                        break
                else:
                    merged.append((coefficient, term))
            kept = [(c, term) for c, term in merged if c != 0]
            disjunction = isinstance(query, UnionOfConjunctiveQueries)
            return Node(
                "inclusion-exclusion" if disjunction else "inclusion-exclusion-conj",
                query,
                _slots(query),
                tuple(self.node(term) for _, term in kept),
                f"{len(parts)} {'disjuncts' if disjunction else 'components'}",
                coefficients=tuple(c for c, _ in kept),
                cancelled=len(merged) - len(kept),
            )
        finally:
            self.in_progress.discard(key)


def _symbol_components(
    disjuncts: Sequence[ConjunctiveQuery],
) -> list[tuple[ConjunctiveQuery, ...]]:
    """Partition disjuncts into groups with pairwise-disjoint symbols."""
    groups: list[tuple[frozenset[str], tuple[ConjunctiveQuery, ...]]] = []
    for q in disjuncts:
        symbols, members = q.predicates, (q,)
        for group in [g for g in groups if g[0] & symbols]:
            groups.remove(group)
            symbols, members = symbols | group[0], group[1] + members
        groups.append((symbols, members))
    return [members for _, members in groups]


def _separator_candidates(
    query: ConjunctiveQuery,
) -> list[tuple[Var, dict[str, frozenset[int]]]]:
    """Separator variables of one CQ with their per-symbol position sets."""
    candidates = []
    for var in sorted(query.root_variables(), key=lambda v: v.name):
        positions: dict[str, frozenset[int]] = {}
        for atom in query.atoms:
            occupied = frozenset(i for i, t in enumerate(atom.args) if t == var)
            positions[atom.predicate] = positions.get(atom.predicate, occupied) & occupied
        if all(positions.values()):
            candidates.append((var, positions))
    return candidates


def _merged_separator(
    disjuncts: Sequence[ConjunctiveQuery],
) -> Optional[tuple[Var, ...]]:
    """One separator per disjunct with consistent positions per symbol.

    When found, ``⋁ᵢ ∃xᵢ φᵢ ≡ ∃x ⋁ᵢ φᵢ[x/xᵢ]`` and x is a separator of the
    merged formula, so the per-value events are independent.
    """
    for choice in itertools.product(*(_separator_candidates(q) for q in disjuncts)):
        positions: dict[str, frozenset[int]] = {}
        for _, candidate in choice:
            for symbol, occupied in candidate.items():
                positions[symbol] = positions.get(symbol, occupied) & occupied
        if all(positions.values()):
            return tuple(var for var, _ in choice)
    return None
