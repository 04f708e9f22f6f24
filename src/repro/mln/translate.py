"""Proposition 3.1: representing an MLN as a TID conditioned on a constraint.

For each soft constraint ``(w, Δ)`` introduce a fresh relation ``Rᵢ`` over
the constraint's free variables. Two equivalent encodings (paper appendix):

* **or-encoding** (the one spelled out in Sec. 3, requires w > 1):
  ``p(Rᵢ) = 1/(w − 1)`` and ``Γᵢ = ∀x̄ (Rᵢ(x̄) ∨ Δ(x̄))``;
* **iff-encoding** (works for every w > 0):
  ``p(Rᵢ) = w/(1 + w)`` and ``Γᵢ = ∀x̄ (Rᵢ(x̄) ⟺ Δ(x̄))``.

A hard rule (w = ∞) gets ``p(Rᵢ) = 0`` under the or-encoding and 1 under the
iff-encoding; either way Γᵢ forces Δ.

Every original predicate's tuples get probability 1/2. Then for any query Q
over the original vocabulary, ``p_MLN(Q) = p_D(Q | Γ)`` with Γ = ⋀ Γᵢ, and
``p_D(· | Γ)`` is a :class:`~repro.condition.ConditionedScenario` of the
encoded database.

The resulting probabilistic database is *symmetric* (Sec. 8), which is what
connects MLNs to the symmetric-WFOMC algorithms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from ..condition.core import ConditionedScenario
from ..core.tid import TupleIndependentDatabase
from ..logic.formulas import And, Atom, Formula, Or, forall_many, iff
from .mln import MarkovLogicNetwork


class Encoding(Enum):
    """Which appendix construction to use for the auxiliary relations."""

    OR = "or"
    IFF = "iff"


@dataclass(frozen=True)
class TIDEncoding:
    """The output of Prop. 3.1: database, constraint, and bookkeeping."""

    database: TupleIndependentDatabase
    constraint: Formula
    auxiliary_predicates: tuple[str, ...]
    encoding: Encoding


def mln_to_tid(
    mln: MarkovLogicNetwork, encoding: Encoding = Encoding.OR
) -> TIDEncoding:
    """Build the TID + constraint pair of Proposition 3.1."""
    db = TupleIndependentDatabase()
    db.explicit_domain = frozenset(mln.domain)
    for name, arity in sorted(mln.arities.items()):
        for values in itertools.product(mln.domain, repeat=arity):
            db.add_fact(name, values, 0.5)

    gammas: list[Formula] = []
    auxiliary: list[str] = []
    for index, constraint in enumerate(mln.constraints):
        w = constraint.weight
        aux_name = f"Aux{index}"
        auxiliary.append(aux_name)
        variables = constraint.free_variables()
        aux_atom = Atom(aux_name, tuple(variables))
        if encoding is Encoding.OR:
            if w <= 1:
                raise ValueError(
                    "the or-encoding needs weight > 1; use Encoding.IFF"
                )
            # The appendix assigns the auxiliary variable *weight* 1/(w-1);
            # the equivalent tuple probability is (1/(w-1))/(1 + 1/(w-1)) =
            # 1/w. (Sec. 3's prose quotes 1/(w-1) as a probability — that is
            # the weight; the verified probability is 1/w. See
            # EXPERIMENTS.md E11.)
            probability = 1.0 / w
            gamma_body: Formula = Or.of((aux_atom, constraint.formula))
        else:
            probability = 1.0 if w == math.inf else w / (1.0 + w)
            gamma_body = iff(aux_atom, constraint.formula)
        for values in itertools.product(mln.domain, repeat=len(variables)):
            db.add_fact(aux_name, values, probability)
        gammas.append(forall_many(variables, gamma_body))

    return TIDEncoding(
        database=db,
        constraint=And.of(gammas),
        auxiliary_predicates=tuple(auxiliary),
        encoding=encoding,
    )


def mln_query_probability(
    mln: MarkovLogicNetwork,
    query: Formula,
    encoding: Encoding = Encoding.OR,
) -> float:
    """p_MLN(Q) = p_D(Q | Γ) through the TID encoding (Prop. 3.1).

    The encoded database is conditioned on Γ like any other scenario
    (:class:`~repro.condition.ConditionedScenario`); compile that scenario
    once to ask it for more than one answer. An MLN whose constraints no
    world satisfies (two contradictory hard rules) raises
    :class:`~repro.condition.InconsistentConstraints`, a ``ValueError``.
    """
    translated = mln_to_tid(mln, encoding)
    scenario = ConditionedScenario.compile(
        translated.database, [str(translated.constraint)]
    )
    return scenario.posterior(query).probability


def mln_query_probability_symmetric(
    mln: MarkovLogicNetwork,
    query: Formula,
    encoding: Encoding = Encoding.OR,
) -> float:
    """Lifted MLN inference via symmetric WFOMC (the SlimShot route [37]).

    The Prop. 3.1 encoding is a *symmetric* database (Sec. 8), so when the
    constraint Γ and the query are FO², the conditional
    ``p(Q|Γ) = WFOMC(Q∧Γ) / WFOMC(Γ)`` is computable in time polynomial in
    the domain — no grounding, no lineage. Raises
    :class:`repro.symmetric.scott.NotFO2Error` outside FO².
    """
    from ..logic.formulas import And
    from ..symmetric.evaluate import symmetric_probability
    from ..symmetric.symmetric_db import SymmetricDatabase

    translated = mln_to_tid(mln, encoding)
    db = SymmetricDatabase(len(mln.domain))
    for name, relation in translated.database.relations.items():
        probabilities = set(relation.rows.values())
        if len(probabilities) != 1:  # pragma: no cover - encoding invariant
            raise ValueError("encoded database is not symmetric")
        db.add_relation(name, relation.arity, probabilities.pop())
    joint = symmetric_probability(And.of((query, translated.constraint)), db)
    denominator = symmetric_probability(translated.constraint, db)
    if denominator == 0.0:  # prodb-lint: exact -- division guard
        raise ZeroDivisionError("constraint has probability zero")
    return min(max(joint / denominator, 0.0), 1.0)
