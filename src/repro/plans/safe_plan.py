"""Safe-plan construction for self-join-free conjunctive queries.

A *safe plan* (Sec. 6) is an extensional plan whose output probability is
exactly p(Q). The classic recursive algorithm (Dalvi–Suciu) builds one for
every hierarchical self-join-free CQ, and fails precisely on the unsafe
(non-hierarchical ⇒ #P-hard) ones:

1. split the residual atoms into groups connected through not-yet-kept
   variables; var-disjoint (hence, self-join-free, symbol-disjoint) groups
   are independent given the kept columns, so a natural join is safe;
2. a single atom may always be independently projected onto the kept
   columns — distinct tuples of one relation are independent;
3. a connected multi-atom group needs a *root* variable occurring in every
   atom: grouping it out is an independent project because the events for
   distinct root values touch disjoint tuples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..logic.cq import ConjunctiveQuery
from ..logic.formulas import Atom
from ..logic.terms import Var
from .plan import JoinNode, PlanNode, ProjectNode, ScanNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..core.tid import TupleIndependentDatabase


class UnsafePlanError(ValueError):
    """No safe plan exists (the query is not hierarchical)."""


class CostModel:
    """Cardinality estimates for join ordering, read lazily from the database.

    Uses the textbook uniform-distribution model: a group of atoms joins to
    roughly the product of its relation cardinalities, divided by the
    domain size once per *repeated* variable occurrence (each repeat is an
    equality predicate with selectivity ≈ 1/|domain|). Crude, but it only
    has to rank var-disjoint groups — smallest estimated intermediate
    first — so that the left-deep join fold keeps intermediates small.
    """

    def __init__(self, db: "TupleIndependentDatabase"):
        self.db = db

    def atom_cardinality(self, atom: Atom) -> int:
        return len(self.db.relations.get(atom.predicate, ()))

    def group_cardinality(self, atoms: tuple[Atom, ...]) -> float:
        estimate = 1.0
        seen: set[Var] = set()
        repeats = 0
        for atom in atoms:
            estimate *= max(1, self.atom_cardinality(atom))
            for var in atom.free_variables():
                if var in seen:
                    repeats += 1
                else:
                    seen.add(var)
        if repeats:  # the (memoized) domain is only needed for equality predicates
            estimate /= max(1, len(self.db.domain())) ** repeats
        return estimate


def safe_plan(
    query: ConjunctiveQuery, db: Optional["TupleIndependentDatabase"] = None
) -> PlanNode:
    """A safe plan for a Boolean self-join-free CQ.

    Raises :class:`UnsafePlanError` when the query is not hierarchical
    (Theorem 4.3's hard side). With *db* given, independent subplans are
    join-ordered by estimated cardinality (smallest intermediate first, see
    :class:`CostModel`) — safety never depends on the order, only the size
    of the intermediates does.
    """
    if query.has_self_joins():
        raise UnsafePlanError("safe plans require a self-join-free query")
    model = CostModel(db) if db is not None else None
    return _build(query.atoms, frozenset(), model)


def try_safe_plan(
    query: ConjunctiveQuery, db: Optional["TupleIndependentDatabase"] = None
) -> Optional[PlanNode]:
    """:func:`safe_plan`, returning None instead of raising."""
    try:
        return safe_plan(query, db)
    except UnsafePlanError:
        return None


def _build(
    atoms: tuple[Atom, ...],
    keep: frozenset[Var],
    model: Optional[CostModel] = None,
) -> PlanNode:
    """A plan with output schema exactly *keep* computing P(∃rest ⋀atoms)."""
    groups = _groups_modulo(atoms, keep)
    if len(groups) > 1:
        groups = _order_groups(groups, model)
        plan: PlanNode = _build(groups[0], keep & _vars(groups[0]), model)
        for group in groups[1:]:
            plan = JoinNode(plan, _build(group, keep & _vars(group), model))
        return _project_to(plan, keep)

    group = groups[0]
    if len(group) == 1:
        ordered = _ordered(keep, _vars(group))
        return ProjectNode(ScanNode(group[0]), ordered)

    residual_roots = [
        v
        for v in sorted(_vars(group) - keep, key=lambda v: v.name)
        if all(v in atom.free_variables() for atom in group)
    ]
    if not residual_roots:
        raise UnsafePlanError(
            f"no root variable in {', '.join(map(str, group))} — the query "
            "is not hierarchical"
        )
    root = residual_roots[0]
    inner = _build(group, keep | {root}, model)
    return ProjectNode(inner, _ordered(keep, keep))


def _order_groups(
    groups: list[tuple[Atom, ...]], model: Optional[CostModel]
) -> list[tuple[Atom, ...]]:
    """Smallest-estimated-intermediate first; stable without a cost model."""
    if model is None:
        return groups
    return sorted(
        groups,
        key=lambda group: (
            model.group_cardinality(group),
            tuple(str(atom) for atom in group),
        ),
    )


def _vars(atoms: tuple[Atom, ...]) -> frozenset[Var]:
    return frozenset(v for atom in atoms for v in atom.free_variables())


def _ordered(keep: frozenset[Var], available: frozenset[Var]) -> tuple[Var, ...]:
    return tuple(sorted(keep & available, key=lambda v: v.name))


def _groups_modulo(
    atoms: tuple[Atom, ...], keep: frozenset[Var]
) -> list[tuple[Atom, ...]]:
    """Atoms grouped by connectivity through variables outside *keep*."""
    n = len(atoms)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            shared = (
                atoms[i].free_variables() & atoms[j].free_variables()
            ) - keep
            if shared:
                parent[find(i)] = find(j)
    groups: dict[int, list[Atom]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(atoms[i])
    return [tuple(g) for g in groups.values()]


def _project_to(plan: PlanNode, keep: frozenset[Var]) -> PlanNode:
    from .plan import plan_variables

    if plan_variables(plan) == keep:
        return plan
    return ProjectNode(plan, tuple(sorted(keep, key=lambda v: v.name)))
