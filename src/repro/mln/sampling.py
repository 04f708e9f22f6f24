"""Sampling-based MLN / conditional inference.

Two estimators for p(Q | Γ) over a TID (the conditioned-TID view of
Sec. 3), for the regimes where exact grounding is too large:

* **rejection sampling** — sample worlds from the TID, discard those
  violating Γ; unbiased, with a Hoeffding certificate on the *conditional*
  estimate via the ratio of two counts. Degrades when p(Γ) is small.
* **weighted world sampling for MLNs** — sample worlds from the uniform
  base measure and average factor weights (a simple importance sampler for
  the partition function and query weight).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from ..core.tid import TupleIndependentDatabase
from ..logic.formulas import Formula
from ..logic.semantics import satisfies
from .mln import MarkovLogicNetwork

__all__ = [
    "ConditionalEstimate",
    "MLNEstimate",
    "importance_sample_mln",
    "rejection_sample_conditional",
    "required_samples_for_conditional",
]


@dataclass(frozen=True)
class ConditionalEstimate:
    """Estimate of p(Q | Γ) with acceptance diagnostics."""

    estimate: float
    samples: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.samples if self.samples else 0.0


def rejection_sample_conditional(
    db: TupleIndependentDatabase,
    query: Formula,
    constraint: Formula,
    samples: int = 10_000,
    rng: Optional[random.Random] = None,
) -> ConditionalEstimate:
    """Estimate p(Q | Γ) by rejection sampling worlds from the TID.

    The default RNG is seeded so runs are reproducible; pass ``rng`` for an
    independent stream.
    """
    rng = rng if rng is not None else random.Random(0)
    domain = db.domain()
    accepted = 0
    hits = 0
    for _ in range(samples):
        world = db.sample_world(rng)
        if not satisfies(world, domain, constraint):
            continue
        accepted += 1
        if satisfies(world, domain, query):
            hits += 1
    estimate = hits / accepted if accepted else float("nan")
    return ConditionalEstimate(estimate, samples, accepted)


@dataclass(frozen=True)
class MLNEstimate:
    """Importance-sampling estimate of p_MLN(Q)."""

    estimate: float
    samples: int
    effective_samples: float


def importance_sample_mln(
    mln: MarkovLogicNetwork,
    query: Formula,
    samples: int = 5_000,
    rng: Optional[random.Random] = None,
) -> MLNEstimate:
    """Estimate p_MLN(Q) = E_w[1_Q·weight] / E_w[weight] over uniform worlds.

    Worlds are drawn uniformly over Tup(DOM) (each tuple present w.p. 1/2 —
    the MLN's base measure), weighted by the product of satisfied factor
    weights. Reports the effective sample size Σw²-based diagnostic.

    The default RNG is seeded so runs are reproducible; pass ``rng`` for an
    independent stream.
    """
    rng = rng if rng is not None else random.Random(0)
    tuples = mln.possible_tuples()
    numerator = 0.0
    denominator = 0.0
    sum_squared = 0.0
    for _ in range(samples):
        world = frozenset(t for t in tuples if rng.random() < 0.5)
        weight = mln.weight_of_world(world)
        denominator += weight
        sum_squared += weight * weight
        if weight and satisfies(world, mln.domain, query):
            numerator += weight
    estimate = numerator / denominator if denominator else float("nan")
    effective = (denominator * denominator / sum_squared) if sum_squared else 0.0
    return MLNEstimate(estimate, samples, effective)


def required_samples_for_conditional(
    constraint_probability: float, epsilon: float, delta: float
) -> int:
    """Rough sample budget: Hoeffding over the accepted subsample.

    To get n_acc = ln(2/δ)/(2ε²) accepted samples in expectation, draw
    n = n_acc / p(Γ) total samples.
    """
    if not 0 < constraint_probability <= 1:
        raise ValueError("constraint probability must be in (0, 1]")
    accepted_needed = math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
    return math.ceil(accepted_needed / constraint_probability)
