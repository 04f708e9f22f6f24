"""Extensional query plans (Sec. 6).

A plan is a tree of operators over the probabilistic relations of a TID:

* leaf: scan one relation, renaming its columns to the atom's variables;
* ``JoinNode``: natural join ⋈, multiplying probabilities;
* ``ProjectNode``: independent project γ, ⊕-combining probabilities.

Executing a plan for a Boolean query yields a single number — the
probability the plan *claims*. For safe plans that number equals p(Q)
(Theorem: safe plans compute PQE); for any other plan of a self-join-free CQ
it is an upper bound (Theorem 6.1).

:func:`execute` / :func:`execute_boolean` interpret a plan tuple-at-a-time
over dict-of-tuples relations. The engine runs every plan on the columnar
executor of :mod:`repro.plans.vectorized`; this interpreter is the
reference that tests and benchmark E16 compare it against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from ..core.tid import TupleIndependentDatabase
from ..engine.stats import OperatorProfile
from ..logic.formulas import Atom
from ..logic.terms import Const, Var
from ..relational.algebra import independent_project, join
from ..relational.relation import Relation


@dataclass(frozen=True)
class ScanNode:
    """Scan an atom's relation; columns are named after the atom's variables.

    Constants in the atom act as selections; repeated variables as equality
    filters. Duplicate rows arising from projection onto the variable
    columns are NOT ⊕-combined here — a scan is purely a rename/filter.
    """

    atom: Atom

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True)
class JoinNode:
    """Natural join of two subplans, multiplying probabilities."""

    left: "PlanNode"
    right: "PlanNode"

    def __str__(self) -> str:
        return f"({self.left} ⋈ {self.right})"


@dataclass(frozen=True)
class ProjectNode:
    """Independent project: keep *variables*, ⊕-combine grouped rows."""

    child: "PlanNode"
    variables: tuple[Var, ...]

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"γ[{names}]({self.child})"


PlanNode = Union[ScanNode, JoinNode, ProjectNode]


def plan_variables(plan: PlanNode) -> frozenset[Var]:
    """The output variables (schema) of a plan node."""
    if isinstance(plan, ScanNode):
        return plan.atom.free_variables()
    if isinstance(plan, JoinNode):
        return plan_variables(plan.left) | plan_variables(plan.right)
    return frozenset(plan.variables)


def plan_atoms(plan: PlanNode) -> tuple[Atom, ...]:
    """All atoms scanned by the plan, left-to-right."""
    if isinstance(plan, ScanNode):
        return (plan.atom,)
    if isinstance(plan, JoinNode):
        return plan_atoms(plan.left) + plan_atoms(plan.right)
    return plan_atoms(plan.child)


def execute(
    plan: PlanNode,
    db: TupleIndependentDatabase,
    profile: Optional[list[OperatorProfile]] = None,
) -> Relation:
    """Evaluate a plan, producing a relation keyed by variable names.

    *profile*, when given, collects one
    :class:`~repro.engine.stats.OperatorProfile` per operator in execution
    order — the same instrumentation the columnar executor emits.
    """
    if isinstance(plan, ScanNode):
        start = time.perf_counter()
        out = _scan(plan.atom, db)
        if profile is not None:
            relation = db.relations.get(plan.atom.predicate)
            rows_in = len(relation) if relation is not None else 0
            profile.append(
                OperatorProfile(
                    f"scan {plan.atom}", rows_in, len(out), time.perf_counter() - start
                )
            )
        return out
    if isinstance(plan, JoinNode):
        left = execute(plan.left, db, profile)
        right = execute(plan.right, db, profile)
        start = time.perf_counter()
        out = join(left, right)
        if profile is not None:
            profile.append(
                OperatorProfile(
                    "join ⋈", len(left) + len(right), len(out), time.perf_counter() - start
                )
            )
        return out
    if isinstance(plan, ProjectNode):
        child = execute(plan.child, db, profile)
        start = time.perf_counter()
        out = independent_project(child, [v.name for v in plan.variables])
        if profile is not None:
            names = ", ".join(v.name for v in plan.variables)
            profile.append(
                OperatorProfile(
                    f"project γ[{names}]", len(child), len(out), time.perf_counter() - start
                )
            )
        return out
    raise TypeError(f"unknown plan node {plan!r}")


def execute_boolean(
    plan: PlanNode,
    db: TupleIndependentDatabase,
    profile: Optional[list[OperatorProfile]] = None,
) -> float:
    """Evaluate a Boolean plan: the plan must project down to zero columns."""
    result = execute(plan, db, profile)
    if result.attributes:
        raise ValueError(
            f"plan output still has columns {result.attributes}; "
            "wrap it in a final ProjectNode((), ...)"
        )
    if not result.rows:
        return 0.0
    return result.rows[()]


def _scan(atom: Atom, db: TupleIndependentDatabase) -> Relation:
    """Scan + rename + select for one atom.

    An atom whose arity disagrees with the stored relation is a schema
    error and raises :class:`ValueError` naming the predicate — silently
    skipping mismatched rows would turn a malformed query into an empty
    (hence wrong) result.
    """
    relation = db.relations.get(atom.predicate)
    variables: list[Var] = []
    positions: list[int] = []
    seen: dict[Var, int] = {}
    for i, term in enumerate(atom.args):
        if isinstance(term, Var) and term not in seen:
            seen[term] = i
            variables.append(term)
            positions.append(i)
    out = Relation(atom.predicate, tuple(v.name for v in variables))
    if relation is None:
        return out
    if relation.arity != atom.arity:
        raise ValueError(
            f"scan of {atom.predicate}: relation arity {relation.arity} does "
            f"not match atom {atom} (arity {atom.arity})"
        )
    for values, prob in relation.items():
        if len(values) != atom.arity:
            raise ValueError(
                f"scan of {atom.predicate}: row {values!r} has arity "
                f"{len(values)}, expected {atom.arity}"
            )
        ok = True
        for i, term in enumerate(atom.args):
            if isinstance(term, Const):
                if values[i] != term.value:
                    ok = False
                    break
            else:
                if values[i] != values[seen[term]]:
                    ok = False
                    break
        if ok:
            out.add(tuple(values[i] for i in positions), prob)
    return out


def project_boolean(child: PlanNode) -> ProjectNode:
    """Final projection onto zero columns (the Boolean root)."""
    return ProjectNode(child, ())
