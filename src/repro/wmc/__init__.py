"""Weighted model counting engines: brute force, DPLL, Monte Carlo, Karp–Luby."""

from .brute import (
    brute_force_wmc,
    brute_force_wmc_exact,
    model_count,
    probability_from_weight,
    weight_from_probability,
    weighted_model_count,
)
from .dpll import (
    DPLLBudgetExceeded,
    DPLLCounter,
    DPLLResult,
    DPLLStatistics,
    compile_decision_dnnf,
    compile_fbdd,
    dpll_probability,
)
from .sampling import (
    SampledEstimate,
    hoeffding_samples,
    monte_carlo_wmc,
)
from .karp_luby import (
    clause_probability,
    karp_luby,
    karp_luby_samples,
)

__all__ = [
    "brute_force_wmc",
    "brute_force_wmc_exact",
    "model_count",
    "probability_from_weight",
    "weight_from_probability",
    "weighted_model_count",
    "DPLLBudgetExceeded",
    "DPLLCounter",
    "DPLLResult",
    "DPLLStatistics",
    "compile_decision_dnnf",
    "compile_fbdd",
    "dpll_probability",
    "SampledEstimate",
    "hoeffding_samples",
    "monte_carlo_wmc",
    "clause_probability",
    "karp_luby",
    "karp_luby_samples",
]
