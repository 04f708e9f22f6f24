"""Unit tests for repro.wmc: brute force, DPLL, sampling, Karp–Luby."""

import random
from fractions import Fraction

import pytest

from repro.booleans.expr import B_FALSE, B_TRUE, band, bnot, bor, bvar
from repro.booleans.forms import to_dnf
from repro.wmc.brute import (
    brute_force_wmc,
    brute_force_wmc_exact,
    model_count,
    probability_from_weight,
    weight_from_probability,
    weighted_model_count,
)
from repro.wmc.dpll import DPLLCounter, compile_decision_dnnf, dpll_probability
from repro.wmc.karp_luby import clause_probability, karp_luby, karp_luby_samples
from repro.wmc.sampling import hoeffding_samples, monte_carlo_wmc

from conftest import close

x, y, z = bvar(0), bvar(1), bvar(2)
P = {0: 0.5, 1: 0.3, 2: 0.8}


def test_brute_force_single_variable():
    assert close(brute_force_wmc(x, P), 0.5)
    assert close(brute_force_wmc(bnot(x), P), 0.5)


def test_brute_force_and_or():
    assert close(brute_force_wmc(band(x, y), P), 0.15)
    assert close(brute_force_wmc(bor(x, y), P), 1 - 0.5 * 0.7)


def test_brute_force_constants():
    assert brute_force_wmc(B_TRUE, P) == 1.0  # prodb-lint: exact
    assert brute_force_wmc(B_FALSE, P) == 0.0  # prodb-lint: exact


def test_brute_force_exact_fractions():
    probabilities = {0: Fraction(1, 2), 1: Fraction(1, 3)}
    got = brute_force_wmc_exact(bor(x, y), probabilities)
    assert got == Fraction(2, 3)


def test_model_count_majority():
    # (x∨y)(x∨z)(y∨z): 4 models out of 8 (the Fig. 3 formula)
    f = band(bor(x, y), bor(x, z), bor(y, z))
    assert model_count(f) == 4


def test_model_count_with_universe():
    assert model_count(x, variables=[0, 1]) == 2


def test_weighted_model_count_appendix():
    # Figure 3: weight(F) = w2w3 + w1w3 + w1w2 + w1w2w3, Z = Π(1+wᵢ)
    w = {0: 2.0, 1: 3.0, 2: 5.0}
    f = band(bor(x, y), bor(x, z), bor(y, z))
    weight, partition = weighted_model_count(f, w)
    assert close(weight, 3 * 5 + 2 * 5 + 2 * 3 + 2 * 3 * 5)
    assert close(partition, 3 * 4 * 6)


def test_weight_probability_duality():
    for p in (0.0, 0.25, 0.5, 0.9):
        assert close(probability_from_weight(weight_from_probability(p)), p)
    assert probability_from_weight(float("inf")) == 1.0  # prodb-lint: exact
    assert weight_from_probability(1.0) == float("inf")


# -- DPLL ---------------------------------------------------------------------


def test_dpll_matches_brute_force_simple():
    f = bor(band(x, y), band(bnot(x), z))
    assert close(dpll_probability(f, P), brute_force_wmc(f, P))


def test_dpll_constants():
    assert dpll_probability(B_TRUE, P) == 1.0  # prodb-lint: exact
    assert dpll_probability(B_FALSE, P) == 0.0  # prodb-lint: exact


def test_dpll_random_formulas_match_brute_force():
    rng = random.Random(4)
    variables = [bvar(i) for i in range(6)]
    probabilities = {i: rng.uniform(0.1, 0.9) for i in range(6)}
    for _ in range(25):
        terms = []
        for _ in range(rng.randint(1, 4)):
            literals = [
                v if rng.random() < 0.5 else bnot(v)
                for v in rng.sample(variables, rng.randint(1, 3))
            ]
            terms.append(band(*literals))
        f = bor(*terms)
        assert close(
            dpll_probability(f, probabilities),
            brute_force_wmc(f, probabilities),
        )


def test_dpll_without_cache_or_components():
    f = bor(band(x, y), band(y, z))
    for cache in (True, False):
        for components in (True, False):
            got = dpll_probability(f, P, use_cache=cache, use_components=components)
            assert close(got, brute_force_wmc(f, P))


def test_dpll_statistics_cache_hits():
    # x∧a ∨ x∧b …: conditioning on x creates shared subformulas
    f = band(bor(x, y), bor(x, y), bor(y, z))
    counter = DPLLCounter()
    result = counter.run(f, P)
    assert result.statistics.calls > 0
    assert result.statistics.shannon_expansions > 0


def test_dpll_fixed_variable_order():
    f = bor(band(x, y), band(y, z))
    got = dpll_probability(f, P, variable_order=[2, 1, 0])
    assert close(got, brute_force_wmc(f, P))


def test_trace_is_decision_dnnf():
    f = bor(band(x, y), band(y, z))
    result = compile_decision_dnnf(f, P)
    assert result.circuit is not None
    assert result.circuit.check_decision_dnnf()
    assert close(result.circuit.wmc(P), result.probability)


def test_trace_components_produce_and_nodes():
    # conditioning on y disconnects x and z
    f = band(bor(x, y), bor(y, z))
    result = compile_decision_dnnf(f, P)
    assert result.trace_size >= 3
    assert close(result.probability, brute_force_wmc(f, P))


def test_or_components_probability_correct():
    # the default counter splits variable-disjoint disjuncts on both paths
    for f, path in ((bor(band(x, y), z), "clause"), (bor(band(x, bnot(y)), z), "general")):
        result = DPLLCounter().run(f, P)
        assert close(result.probability, brute_force_wmc(f, P))
        assert (result.statistics.path, result.statistics.or_splits) == (path, 1)


# -- Monte Carlo ------------------------------------------------------------------


def test_hoeffding_sample_size():
    assert hoeffding_samples(0.1, 0.05) == 185


def test_hoeffding_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hoeffding_samples(0.0, 0.5)


def test_monte_carlo_close_to_truth():
    f = bor(band(x, y), band(bnot(x), z))
    truth = brute_force_wmc(f, P)
    estimate = monte_carlo_wmc(f, P, rng=random.Random(1), samples=30000)
    assert abs(estimate.estimate - truth) < 0.02


# -- Karp–Luby ----------------------------------------------------------------------


def test_clause_probability():
    clause = frozenset({1, -2})  # x0 ∧ ¬x1
    assert close(clause_probability(clause, P), 0.5 * 0.7)


def test_karp_luby_sample_bound():
    assert karp_luby_samples(10, 0.1, 0.05) > 10000


def test_karp_luby_close_to_truth():
    f = bor(band(x, y), band(y, z), band(x, z))
    truth = brute_force_wmc(f, P)
    clauses = to_dnf(f)
    estimate = karp_luby(clauses, P, rng=random.Random(2), samples=40000)
    assert abs(estimate.estimate - truth) / truth < 0.05


def test_karp_luby_small_probability_relative_error():
    tiny = {0: 0.001, 1: 0.001, 2: 0.001}
    f = bor(band(x, y), band(y, z))
    truth = brute_force_wmc(f, tiny)
    clauses = to_dnf(f)
    estimate = karp_luby(clauses, tiny, rng=random.Random(3), samples=50000)
    assert abs(estimate.estimate - truth) / truth < 0.2


def test_karp_luby_empty():
    assert karp_luby([], P).estimate == 0.0  # prodb-lint: exact


def test_karp_luby_stream_is_pinned():
    # Captured before the conditioned sampler was folded into karp_luby: a
    # moved draw changes the estimate.
    clauses = to_dnf(bor(band(x, y), band(y, z), band(x, bnot(z))))
    estimate = karp_luby(clauses, P, epsilon=0.2, delta=0.1, rng=random.Random(7))
    assert (estimate.estimate, estimate.samples) == (0.3455407407407407, 675)  # prodb-lint: exact


def test_karp_luby_under_true_constraint_matches_plain():
    clauses = to_dnf(bor(band(x, y), band(y, z), band(x, bnot(z))))
    constrained = karp_luby(
        clauses, P, epsilon=0.2, delta=0.1, rng=random.Random(7),
        constraint=B_TRUE, constraint_probability=1.0,
    )
    # The 1/P(Γ) budget rounds up by one trial; at equal trial counts the
    # two runs consume the same draws and agree bit for bit.
    assert constrained.samples == karp_luby_samples(len(clauses), 0.2, 0.1) + 1
    plain = karp_luby(
        clauses, P, epsilon=0.2, delta=0.1, rng=random.Random(7),
        samples=constrained.samples,
    )
    assert constrained == plain
    for samples in (1, 500):
        assert karp_luby(
            clauses, P, rng=random.Random(3), samples=samples,
            constraint=B_TRUE, constraint_probability=1.0,
        ) == karp_luby(clauses, P, rng=random.Random(3), samples=samples)

