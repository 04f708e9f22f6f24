"""Naive Monte Carlo estimation of P(F), and the record every sampler returns.

The simplest fallback route for #P-hard queries: sample assignments of the
lineage's variables, check the formula, average. Comes with the standard
additive Hoeffding bound:
``n ≥ ln(2/δ) / (2ε²)`` samples give |estimate − p| ≤ ε with probability
1 − δ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

from ..booleans.expr import BExpr, evaluate


@dataclass(frozen=True)
class SampledEstimate:
    """An estimate with its sample count and the (ε, δ) it was drawn for.

    The error is additive for :func:`monte_carlo_wmc` and relative for
    :func:`~repro.wmc.karp_luby.karp_luby`.
    """

    estimate: float
    samples: int
    epsilon: float
    delta: float


def hoeffding_samples(epsilon: float, delta: float) -> int:
    """Samples needed for an (ε, δ) additive guarantee."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


def monte_carlo_wmc(
    expr: BExpr,
    probabilities: Mapping[int, float],
    epsilon: float = 0.05,
    delta: float = 0.05,
    rng: Optional[random.Random] = None,
    samples: Optional[int] = None,
) -> SampledEstimate:
    """Estimate P(expr) by sampling assignments variable-by-variable.

    The default RNG is seeded so runs are reproducible; pass ``rng`` for an
    independent stream.
    """
    rng = rng if rng is not None else random.Random(0)
    n = samples if samples is not None else hoeffding_samples(epsilon, delta)
    variables = sorted(expr.variables())
    hits = 0
    for _ in range(n):
        assignment = {v: rng.random() < probabilities[v] for v in variables}
        if evaluate(expr, assignment):
            hits += 1
    return SampledEstimate(hits / n if n else 0.0, n, epsilon, delta)
