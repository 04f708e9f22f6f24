"""Lineage construction: grounding a query into a Boolean formula.

Implements the inductive definition from the paper's appendix ("Lineage of an
FO sentence"): each possible tuple becomes a Boolean variable, conjunction /
disjunction map to ∧ / ∨, and the quantifiers expand over the finite domain.

Two builders are provided:

* :func:`lineage_of_sentence` — the generic inductive construction, works for
  any FO sentence (cost ``|DOM|^quantifier-depth``);
* :func:`lineage_of_ucq` — a join-based construction for UCQs that only
  touches stored tuples, producing the positive DNF lineage directly.

Both share a :class:`VariablePool` mapping facts to variable indices, so that
their outputs are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..booleans.expr import (
    B_FALSE,
    B_TRUE,
    BAnd,
    BExpr,
    BOr,
    BVar,
    bnot,
    bvar,
)
from ..core.tid import TupleIndependentDatabase
from ..logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..logic.formulas import (
    And,
    Atom,
    Bottom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Top,
)
from ..logic.semantics import Fact, ground_atom
from ..logic.terms import Const, Var


@dataclass
class VariablePool:
    """Assigns consecutive integer indices to facts, remembering probabilities.

    The pool also keeps the interned :class:`BVar` node per fact, so
    grounding a fact that was seen before returns the existing literal
    object without touching the kernel's unique table.
    """

    var_of_fact: dict[Fact, int] = field(default_factory=dict)
    fact_of_var: list[Fact] = field(default_factory=list)
    probabilities: list[float] = field(default_factory=list)
    node_of_var: list[BVar] = field(default_factory=list)

    def variable(self, fact: Fact, probability: float) -> int:
        index = self.var_of_fact.get(fact)
        if index is None:
            index = len(self.fact_of_var)
            self.var_of_fact[fact] = index
            self.fact_of_var.append(fact)
            self.probabilities.append(probability)
            self.node_of_var.append(bvar(index))
        return index

    def literal(self, fact: Fact, probability: float) -> BVar:
        """The interned literal node for *fact*, registering it if new."""
        return self.node_of_var[self.variable(fact, probability)]

    def probability_map(self) -> dict[int, float]:
        return dict(enumerate(self.probabilities))

    def __len__(self) -> int:
        return len(self.fact_of_var)


@dataclass
class Lineage:
    """A grounded query: the Boolean expression plus the fact/variable maps."""

    expr: BExpr
    pool: VariablePool

    @property
    def variable_count(self) -> int:
        return len(self.pool)

    def probabilities(self) -> dict[int, float]:
        """``{variable index: marginal probability}`` for WMC engines."""
        return self.pool.probability_map()

    def fact(self, index: int) -> Fact:
        return self.pool.fact_of_var[index]


def lineage_of_sentence(
    sentence: Formula,
    db: TupleIndependentDatabase,
    domain: Optional[tuple] = None,
    pool: Optional[VariablePool] = None,
) -> Lineage:
    """The lineage F_{Q,DOM} of an FO sentence over a TID.

    A ground atom whose tuple is absent from the database (marginal 0)
    grounds to *false*; every stored tuple grounds to its Boolean variable.
    Simplification happens on the fly through the smart constructors, so the
    returned expression never mentions impossible tuples.
    """
    values = db.domain() if domain is None else tuple(domain)
    pool = pool if pool is not None else VariablePool()
    env: dict[Var, object] = {}

    def walk(f: Formula) -> BExpr:
        if isinstance(f, Top):
            return B_TRUE
        if isinstance(f, Bottom):
            return B_FALSE
        if isinstance(f, Atom):
            fact = ground_atom(f, env)
            probability = db.probability_of_fact(fact[0], fact[1])
            if probability <= 0.0:
                return B_FALSE
            return pool.literal(fact, probability)
        if isinstance(f, Not):
            return bnot(walk(f.sub))
        if isinstance(f, And):
            return BAnd.of(walk(p) for p in f.parts)
        if isinstance(f, Or):
            return BOr.of(walk(p) for p in f.parts)
        if isinstance(f, (Exists, Forall)):
            missing = object()
            previous = env.get(f.var, missing)
            parts = []
            for value in values:
                env[f.var] = value
                parts.append(walk(f.sub))
            if previous is missing:
                env.pop(f.var, None)
            else:
                env[f.var] = previous
            return BOr.of(parts) if isinstance(f, Exists) else BAnd.of(parts)
        raise TypeError(f"unknown formula node {f!r}")

    if sentence.free_variables():
        raise ValueError("lineage requires a sentence (no free variables)")
    return Lineage(walk(sentence), pool)


def _match_atoms(
    atoms: tuple[Atom, ...],
    db: TupleIndependentDatabase,
    binding: dict[Var, object],
) -> Iterator[dict[Var, object]]:
    """All total matches of the atom list against stored tuples."""
    if not atoms:
        yield dict(binding)
        return
    atom, rest = atoms[0], atoms[1:]
    relation = db.relations.get(atom.predicate)
    if relation is None:
        return
    for values, probability in relation.items():
        if probability <= 0.0 or len(values) != atom.arity:
            continue
        trail: list[Var] = []
        ok = True
        for term, value in zip(atom.args, values):
            if isinstance(term, Const):
                if term.value != value:
                    ok = False
                    break
            else:
                bound = binding.get(term)
                if bound is None:
                    binding[term] = value
                    trail.append(term)
                elif bound != value:
                    ok = False
                    break
        if ok:
            yield from _match_atoms(rest, db, binding)
        for var in trail:
            del binding[var]


def lineage_of_cq(
    query: ConjunctiveQuery,
    db: TupleIndependentDatabase,
    pool: Optional[VariablePool] = None,
) -> Lineage:
    """Join-based lineage of a Boolean CQ: the positive DNF over matches."""
    pool = pool if pool is not None else VariablePool()
    terms: list[BExpr] = []
    # Order atoms so highly selective (constant-rich) atoms bind first.
    ordered = tuple(
        sorted(query.atoms, key=lambda a: -sum(isinstance(t, Const) for t in a.args))
    )
    for match in _match_atoms(ordered, db, {}):
        factors = []
        for atom in query.atoms:
            fact = ground_atom(atom, match)
            probability = db.probability_of_fact(fact[0], fact[1])
            factors.append(pool.literal(fact, probability))
        terms.append(BAnd.of(factors))
    return Lineage(BOr.of(terms), pool)


def lineage_of_ucq(
    query: UnionOfConjunctiveQueries,
    db: TupleIndependentDatabase,
    pool: Optional[VariablePool] = None,
) -> Lineage:
    """Join-based lineage of a UCQ: disjunction of the per-CQ lineages."""
    pool = pool if pool is not None else VariablePool()
    parts = [lineage_of_cq(disjunct, db, pool).expr for disjunct in query]
    return Lineage(BOr.of(parts), pool)


def lineage_of(
    parsed: Formula | ConjunctiveQuery | UnionOfConjunctiveQueries,
    db: TupleIndependentDatabase,
    pool: Optional[VariablePool] = None,
) -> Lineage:
    """The lineage of any parsed Boolean query: joins for a CQ or UCQ,
    grounding over the active domain for an FO sentence. Pass *pool* to
    ground several queries over one variable numbering."""
    if isinstance(parsed, ConjunctiveQuery):
        return lineage_of_cq(parsed, db, pool)
    if isinstance(parsed, UnionOfConjunctiveQueries):
        return lineage_of_ucq(parsed, db, pool)
    return lineage_of_sentence(parsed, db, pool=pool)


def answer_lineages(
    query: ConjunctiveQuery,
    head: tuple[Var, ...],
    db: TupleIndependentDatabase,
    pool: Optional[VariablePool] = None,
) -> tuple[dict[tuple, BExpr], VariablePool]:
    """Per-answer lineage for a non-Boolean CQ.

    *head* lists the free (output) variables; all others are existential.
    Returns ``{answer values: lineage}`` plus the shared variable pool —
    this is the "intensional semantics" of Fuhr and Rölleke that the paper
    recalls in the Terminology paragraph.
    """
    pool = pool if pool is not None else VariablePool()
    grouped: dict[tuple, list[BExpr]] = {}
    ordered = tuple(
        sorted(query.atoms, key=lambda a: -sum(isinstance(t, Const) for t in a.args))
    )
    for match in _match_atoms(ordered, db, {}):
        key = tuple(match[v] for v in head)
        factors = []
        for atom in query.atoms:
            fact = ground_atom(atom, match)
            probability = db.probability_of_fact(fact[0], fact[1])
            factors.append(pool.literal(fact, probability))
        grouped.setdefault(key, []).append(BAnd.of(factors))
    return {key: BOr.of(parts) for key, parts in grouped.items()}, pool
