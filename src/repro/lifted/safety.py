"""Deciding the complexity of PQE(Q) — the dichotomy side (Sec. 4).

Two deciders:

* :func:`cq_is_safe` — Theorem 4.3's AC⁰ criterion for self-join-free CQs:
  safe ⇔ hierarchical.
* :func:`decide_safety` — for UCQs (and CQs with self-joins): derive the
  query with the lifted rules, without data
  (:func:`repro.lifted.derive.derive`). A derivation certifies PTIME;
  getting stuck means no rule applies, which by the completeness theorem
  (Thm. 5.1) certifies #P-hardness for queries in the paper's language.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from .derive import Derivation, derive
from .errors import NonLiftableError


class Complexity(Enum):
    """The two sides of the dichotomy (Theorem 4.1)."""

    PTIME = "PTIME"
    SHARP_P_HARD = "#P-hard"


@dataclass(frozen=True)
class SafetyVerdict:
    """The decided complexity plus its witness: a derivation, or a stuck subquery."""

    complexity: Complexity
    blocking_subquery: str = ""
    #: The rule derivation that certifies PTIME.
    derivation: Optional[Derivation] = None
    #: Where the rules got stuck, naming the subquery, on the #P-hard side.
    error: Optional[NonLiftableError] = None

    @property
    def is_safe(self) -> bool:
        return self.complexity is Complexity.PTIME

    @property
    def cache_hit(self) -> bool:
        """Whether :func:`derive` had decided this query's shape before."""
        witness = self.derivation or self.error
        return witness is not None and witness.cache_hit


def cq_is_safe(query: ConjunctiveQuery) -> bool:
    """Theorem 4.3 for self-join-free CQs: safe ⇔ hierarchical.

    Raises ValueError for queries with self-joins, where the criterion is
    not sound (the paper's counterexample: R(x,y), R(y,z) is hierarchical
    yet #P-hard) — use :func:`decide_safety` instead.
    """
    if query.has_self_joins():
        raise ValueError("hierarchy criterion only applies to self-join-free queries")
    return query.is_hierarchical()


def decide_safety(query: UnionOfConjunctiveQueries | ConjunctiveQuery) -> SafetyVerdict:
    """Decide the dichotomy side of a UCQ: :func:`derive`'s verdict."""
    try:
        derivation = derive(query)
    except NonLiftableError as error:
        return SafetyVerdict(Complexity.SHARP_P_HARD, str(error.subquery), error=error)
    return SafetyVerdict(Complexity.PTIME, derivation=derivation)
