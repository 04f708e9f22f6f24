"""The Karp–Luby FPRAS for weighted DNF counting.

UCQ lineages are positive DNFs, and naive Monte Carlo is useless when P(F)
is tiny (relative error explodes). Karp–Luby samples from the *union space*
instead: pick a clause with probability proportional to its weight, sample a
world satisfying it, and count the fraction of samples for which the chosen
clause is the first satisfied one. The estimate has relative error ε with
probability 1 − δ after ``⌈ 3·m·ln(2/δ) / ε² ⌉`` samples, where *m* is the
number of clauses.

This gives the FPRAS the paper's conclusion alludes to for the "other" (hard)
queries, applicable whenever the lineage is available in DNF. The same loop
serves conditioned answers (Koch–Olteanu): under a constraint Γ it estimates
``P(F ∧ Γ)`` by counting a Γ-violating sample as a miss.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Mapping, Optional, Sequence

from ..booleans.expr import BExpr, evaluate
from ..booleans.forms import Clause, literal_sign, literal_var
from .sampling import SampledEstimate

#: Hard ceiling on constrained trial counts: the 1/P(Γ) inflation must not
#: turn a degraded answer into an unbounded computation.
_MAX_CONSTRAINED_SAMPLES = 200_000


def clause_probability(clause: Clause, probabilities: Mapping[int, float]) -> float:
    """Probability that a single conjunctive clause is satisfied."""
    result = 1.0
    for lit in clause:
        p = probabilities[literal_var(lit)]
        result *= p if literal_sign(lit) else 1.0 - p
    return result


def karp_luby_samples(clause_count: int, epsilon: float, delta: float) -> int:
    """Trial count for an (ε, δ) *relative*-error guarantee."""
    if not 0 < epsilon or not 0 < delta < 1:
        raise ValueError("epsilon must be positive, delta in (0, 1)")
    return math.ceil(3.0 * clause_count * math.log(2.0 / delta) / (epsilon * epsilon))


def karp_luby(
    clauses: Sequence[Clause],
    probabilities: Mapping[int, float],
    epsilon: float = 0.1,
    delta: float = 0.05,
    rng: Optional[random.Random] = None,
    samples: Optional[int] = None,
    *,
    constraint: Optional[BExpr] = None,
    constraint_probability: float = 1.0,
) -> SampledEstimate:
    """Karp–Luby estimator for P(⋁ clauses) under independent variables.

    Clauses use the literal encoding of :mod:`repro.booleans.forms`. Clauses
    with probability 0 are dropped; an empty clause list yields estimate 0.

    With a *constraint* Γ (whose exact mass is *constraint_probability*)
    the estimate is of ``P(⋁ clauses ∧ Γ)``: Γ's variables outside the
    chosen clause are drawn from the prior too, and a sample whose world
    violates Γ is a miss, which keeps the estimator unbiased for the joint.
    The default trial count is then the Karp–Luby budget inflated by
    ``1 / P(Γ)`` (the acceptance rate), capped at 200 000, so the
    relative-ε guarantee carries over whenever Q and Γ are not
    adversarially correlated.

    The default RNG is seeded so runs are reproducible; pass ``rng`` for an
    independent stream.
    """
    rng = rng if rng is not None else random.Random(0)
    weighted = [
        (clause, weight)
        for clause in clauses
        if (weight := clause_probability(clause, probabilities)) > 0.0
    ]
    if not weighted:
        return SampledEstimate(0.0, 0, epsilon, delta)

    weights = [weight for _, weight in weighted]
    total_weight = sum(weights)
    cumulative = list(accumulate(weights))
    last = len(cumulative) - 1

    n = samples
    if n is None:
        n = karp_luby_samples(len(weighted), epsilon, delta)
        if constraint is not None:
            inflation = 1.0 / max(constraint_probability, 1e-6)
            n = min(int(n * inflation) + 1, _MAX_CONSTRAINED_SAMPLES)
    # Pre-index: variables fixed by each clause, as a map and as pairs.
    fixed: list[dict[int, bool]] = [
        {literal_var(lit): literal_sign(lit) for lit in clause} for clause, _ in weighted
    ]
    pairs = [tuple(clause.items()) for clause in fixed]
    variables = {var for clause in fixed for var in clause}
    if constraint is not None:
        variables |= set(constraint.variables())
    priors = [(var, probabilities[var]) for var in sorted(variables)]
    draw = rng.random

    hits = 0
    for _ in range(n):
        # 1. pick a clause proportionally to its weight
        index = min(bisect_left(cumulative, draw() * total_weight), last)
        chosen = fixed[index]
        # 2. sample a world conditioned on the chosen clause being true
        assignment = {
            var: chosen[var] if var in chosen else draw() < p for var, p in priors
        }
        # 3. success iff the chosen clause is the *first* satisfied clause
        # (and, under a constraint, the world satisfies Γ)
        for j in range(index):
            for var, value in pairs[j]:
                if assignment[var] != value:
                    break
            else:  # clause j is satisfied too, and it comes first
                break
        else:
            if constraint is None or evaluate(constraint, assignment):
                hits += 1

    estimate = (hits / n) * total_weight if n else 0.0
    return SampledEstimate(min(estimate, 1.0), n, epsilon, delta)
