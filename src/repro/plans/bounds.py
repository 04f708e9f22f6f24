"""Theorem 6.1: extensional upper and lower bounds for unsafe queries.

* Upper bound: execute the safe plan of every (minimal) dissociation; each
  result upper-bounds p(Q); return the minimum.
* Lower bound: first rescale every tuple probability to
  ``1 − (1 − p)^(1/k)`` where *k* is the number of times the tuple occurs in
  the DNF lineage of Q on D (the paper's "simple modification" producing
  D₁), then execute the same plans; each result lower-bounds p(Q); return
  the maximum.

Together: ``Plan_{D₁} ≤ p(Q) ≤ Plan_D`` for every plan, and the module
returns the tightest sandwich the plan space offers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..booleans.forms import dnf_occurrence_counts, to_dnf
from ..core.tid import TupleIndependentDatabase
from ..lineage.build import lineage_of_cq
from ..logic.cq import ConjunctiveQuery
from ..sanitize import check_bounds
from .dissociation import Dissociation, minimal_dissociations
from .plan import project_boolean
from .safe_plan import safe_plan
from .vectorized import execute_boolean_columnar


@dataclass(frozen=True)
class BoundsResult:
    """The extensional sandwich around p(Q)."""

    lower: float
    upper: float
    plan_count: int
    per_plan_upper: tuple[float, ...]
    per_plan_lower: tuple[float, ...]

    def contains(self, probability: float, tolerance: float = 1e-9) -> bool:
        return self.lower - tolerance <= probability <= self.upper + tolerance

    @property
    def width(self) -> float:
        return self.upper - self.lower


def plan_upper_bound(
    query: ConjunctiveQuery,
    db: TupleIndependentDatabase,
    dissociation: Dissociation,
) -> float:
    """One plan's output on D — an upper bound on p(Q) (Theorem 6.1)."""
    widened_query = dissociation.dissociated_query()
    widened_db = dissociation.dissociated_database(db)
    plan = project_boolean(safe_plan(widened_query))
    return execute_boolean_columnar(plan, widened_db)


def oblivious_database(
    query: ConjunctiveQuery, db: TupleIndependentDatabase
) -> TupleIndependentDatabase:
    """The paper's D₁: tuple probabilities rescaled to 1 − (1−p)^(1/k).

    *k* counts the tuple's occurrences in the DNF lineage of Q on D (the
    group-by-count(*) query of Sec. 6). Tuples outside the lineage keep
    their probability — they cannot affect the query.
    """
    lineage = lineage_of_cq(query, db)
    counts = dnf_occurrence_counts(to_dnf(lineage.expr))
    result = db.copy()
    for index, fact in enumerate(lineage.pool.fact_of_var):
        k = counts.get(index, 0)
        if k <= 1:
            continue
        name, values = fact
        p = db.probability_of_fact(name, values)
        result.relations[name].replace(values, 1.0 - (1.0 - p) ** (1.0 / k))
    return result


def plan_lower_bound(
    query: ConjunctiveQuery,
    db: TupleIndependentDatabase,
    dissociation: Dissociation,
) -> float:
    """One plan's output on D₁ — a lower bound on p(Q) (Theorem 6.1)."""
    rescaled = oblivious_database(query, db)
    widened_query = dissociation.dissociated_query()
    widened_db = dissociation.dissociated_database(rescaled)
    plan = project_boolean(safe_plan(widened_query))
    return execute_boolean_columnar(plan, widened_db)


def extensional_bounds(
    query: ConjunctiveQuery, db: TupleIndependentDatabase
) -> BoundsResult:
    """The min-over-plans upper bound and max-over-plans lower bound."""
    dissociations = minimal_dissociations(query)
    uppers = tuple(plan_upper_bound(query, db, d) for d in dissociations)
    lowers = tuple(plan_lower_bound(query, db, d) for d in dissociations)
    # Sanitizer (no-op unless REPRO_SANITIZE=1): Theorem 6.1 guarantees
    # every lower bound sits below every upper bound.
    check_bounds(
        max(lowers), min(uppers), context="extensional sandwich (Thm 6.1)"
    )
    return BoundsResult(
        lower=max(lowers),
        upper=min(uppers),
        plan_count=len(dissociations),
        per_plan_upper=uppers,
        per_plan_lower=lowers,
    )
