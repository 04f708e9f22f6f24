"""Columnar execution of extensional plans: the executor of every safe plan.

Runs the plan trees of :mod:`repro.plans.plan` — ``ScanNode`` /
``JoinNode`` / ``ProjectNode`` — end-to-end over
:class:`~repro.relational.columnar.ColumnarRelation`, so the whole
evaluation is a short sequence of numpy array passes. The safe-plan route
and the Theorem 6.1 bounds both execute here. The tuple-at-a-time
interpreter in :mod:`repro.plans.plan` is kept only as the reference:
differential tests and benchmark E16 pin the two to agree within 1e-9 on
every safe query.

The only per-row Python is the one-time dictionary encoding of each base
relation, memoized per ``(database version, predicate)`` on the database
instance itself — repeat queries against an unchanged database scan
pre-encoded columns, and the memo dies with the database.

Both executors accept an optional *profile* list and append one
:class:`~repro.engine.stats.OperatorProfile` per operator (rows in, rows
out, seconds), which the façade surfaces through ``QueryAnswer.stats`` and
``explain()``.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..core.tid import TupleIndependentDatabase
from ..engine.stats import OperatorProfile
from ..logic.formulas import Atom
from ..logic.terms import Const, Var
from ..relational import columnar
from ..relational.columnar import ColumnarRelation
from .plan import JoinNode, PlanNode, ProjectNode, ScanNode

__all__ = [
    "execute_boolean_columnar",
    "execute_columnar",
    "seed_scan_cache",
]

# -- scan cache ---------------------------------------------------------------
#
# Stored on the database instance as ``(version, {predicate: encoded
# relation})``; the version check drops every entry the moment the database
# mutates, and the memo is garbage-collected with the database. Races
# between batch workers at worst encode the same relation twice — both
# results are equivalent.

_SCAN_CACHE_ATTR = "_columnar_scan_cache"


def _encoded_relation(
    db: TupleIndependentDatabase, predicate: str
) -> Optional[ColumnarRelation]:
    relation = db.relations.get(predicate)
    if relation is None:
        return None
    cached: Optional[tuple[int, dict[str, ColumnarRelation]]]
    cached = getattr(db, _SCAN_CACHE_ATTR, None)
    if cached is None or cached[0] != db.version:
        cached = (db.version, {})
        setattr(db, _SCAN_CACHE_ATTR, cached)
    encoded = cached[1].get(predicate)
    if encoded is None:
        encoded = columnar.from_relation(relation)
        cached[1][predicate] = encoded
    return encoded


def seed_scan_cache(
    db: TupleIndependentDatabase, encoded: dict[str, ColumnarRelation]
) -> None:
    """Pre-populate the per-database scan memo with *encoded* relations.

    Used by the multi-process server: a worker that attaches shared-memory
    shards (:mod:`repro.relational.shm`) already holds every base relation
    in columnar form, so seeding the memo makes the first scan of each
    predicate zero-copy instead of re-encoding the rows.
    """
    setattr(db, _SCAN_CACHE_ATTR, (db.version, dict(encoded)))


# -- plan execution -----------------------------------------------------------


def execute_columnar(
    plan: PlanNode,
    db: TupleIndependentDatabase,
    profile: Optional[list[OperatorProfile]] = None,
) -> ColumnarRelation:
    """Evaluate a plan columnar, producing codes keyed by variable names."""
    if isinstance(plan, ScanNode):
        start = time.perf_counter()
        out = _scan_columnar(plan.atom, db)
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
        left = execute_columnar(plan.left, db, profile)
        right = execute_columnar(plan.right, db, profile)
        start = time.perf_counter()
        out = columnar.join(left, right)
        if profile is not None:
            profile.append(
                OperatorProfile(
                    "join ⋈", len(left) + len(right), len(out), time.perf_counter() - start
                )
            )
        return out
    if isinstance(plan, ProjectNode):
        child = execute_columnar(plan.child, db, profile)
        start = time.perf_counter()
        out = columnar.independent_project(child, [v.name for v in plan.variables])
        if profile is not None:
            names = ", ".join(v.name for v in plan.variables)
            profile.append(
                OperatorProfile(
                    f"project γ[{names}]", len(child), len(out), time.perf_counter() - start
                )
            )
        return out
    raise TypeError(f"unknown plan node {plan!r}")


def execute_boolean_columnar(
    plan: PlanNode,
    db: TupleIndependentDatabase,
    profile: Optional[list[OperatorProfile]] = None,
) -> float:
    """Evaluate a Boolean plan: the plan must project down to zero columns."""
    result = execute_columnar(plan, db, profile)
    if result.attributes:
        raise ValueError(
            f"plan output still has columns {result.attributes}; "
            "wrap it in a final ProjectNode((), ...)"
        )
    if len(result) == 0:
        return 0.0
    return float(result.probabilities[0])


def _scan_columnar(atom: Atom, db: TupleIndependentDatabase) -> ColumnarRelation:
    """Scan + rename + select for one atom, vectorized.

    Mirrors :func:`repro.plans.plan._scan`: constants become equality
    selections, repeated variables become diagonal filters, and columns are
    renamed to the atom's variables. An atom whose arity disagrees with the
    stored relation is a schema error, never an empty result.
    """
    variables: list[Var] = []
    positions: list[int] = []
    seen: dict[Var, int] = {}
    for i, term in enumerate(atom.args):
        if isinstance(term, Var) and term not in seen:
            seen[term] = i
            variables.append(term)
            positions.append(i)
    out_attributes = tuple(v.name for v in variables)

    base = _encoded_relation(db, atom.predicate)
    if base is None:
        return columnar.empty(atom.predicate, out_attributes)
    if base.arity != atom.arity:
        raise ValueError(
            f"scan of {atom.predicate}: relation arity {base.arity} does not "
            f"match atom {atom} (arity {atom.arity})"
        )

    mask = None
    for i, term in enumerate(atom.args):
        if isinstance(term, Const):
            code = columnar.DEFAULT_INTERNER.code_of(term.value)
            condition = (
                base.columns[i] == code
                if code is not None
                else np.zeros(len(base), dtype=bool)
            )
        elif seen[term] != i:
            condition = base.columns[i] == base.columns[seen[term]]
        else:
            continue
        mask = condition if mask is None else mask & condition

    indices = (
        np.arange(len(base), dtype=np.int64) if mask is None else np.flatnonzero(mask)
    )
    return ColumnarRelation(
        atom.predicate,
        out_attributes,
        tuple(base.columns[i][indices] for i in positions),
        base.probabilities[indices],
    )
