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
relation, memoized per relation on that relation's version, on the database
instance itself — repeat queries scan pre-encoded columns, a write
re-encodes only the relation it touched, and the memo dies with the
database.

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
from ..relational.relation import Relation
from .plan import JoinNode, PlanNode, ProjectNode, ScanNode

__all__ = [
    "execute_boolean_columnar",
    "execute_columnar",
    "seed_scan_cache",
]

# -- scan cache ---------------------------------------------------------------
#
# Stored on the database instance as ``{predicate: (relation, relation
# version, encoded relation)}``. An entry serves only while the database
# still holds that same relation object at that same version, so a write to
# ``S`` re-encodes ``S`` alone and a relation swapped out under its name is
# never confused with its predecessor; the memo is garbage-collected with
# the database. Races between batch workers at worst encode the same
# relation twice — both results are equivalent.

_SCAN_CACHE_ATTR = "_columnar_scan_cache"


_ScanEntry = tuple[Relation, int, ColumnarRelation]


def _scan_memo(db: TupleIndependentDatabase) -> dict[str, _ScanEntry]:
    memo = getattr(db, _SCAN_CACHE_ATTR, None)
    if memo is None:
        memo = {}
        setattr(db, _SCAN_CACHE_ATTR, memo)
    return memo


def _encoded_relation(
    db: TupleIndependentDatabase, predicate: str
) -> Optional[ColumnarRelation]:
    relation = db.relations.get(predicate)
    if relation is None:
        return None
    memo = _scan_memo(db)
    entry = memo.get(predicate)
    if entry is not None and entry[0] is relation and entry[1] == relation.version:
        return entry[2]
    encoded = columnar.from_relation(relation)
    memo[predicate] = (relation, relation.version, encoded)
    return encoded


def seed_scan_cache(
    db: TupleIndependentDatabase, encoded: dict[str, ColumnarRelation]
) -> None:
    """Pre-populate the per-database scan memo with *encoded* relations.

    Each must encode the relation of that name as it stands now. Used by
    the multi-process server: a worker that attaches shared-memory shards
    (:mod:`repro.relational.shm`) already holds every base relation in
    columnar form, so seeding the memo makes the first scan of each
    predicate zero-copy instead of re-encoding the rows.
    """
    memo = _scan_memo(db)
    for predicate, relation_encoded in encoded.items():
        relation = db.relations.get(predicate)
        if relation is not None:
            memo[predicate] = (relation, relation.version, relation_encoded)


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
