"""E19 — conditioning: compile-once scenarios vs per-request recompilation.

The scenario-session design (Koch–Olteanu conditioning behind
``POST /condition``) rests on two amortization claims, both measured here
against their naive baselines on the same database and constraint set:

* **Install once, serve many** — N distinct conditioned requests
  (posteriors ``P(Q | Γ)`` and what-if derivations) against one installed
  scenario must run ≥ {REUSE_FLOOR}× faster than recompiling Γ for every
  request. The win is the compiled circuit: installing Γ pins its fact
  literals and compiles the query constraint once, and later requests
  evaluate or differentiate that circuit under their pins.
* **What-if by re-weighting** — deriving a scenario with
  :meth:`~repro.condition.core.ConditionedScenario.whatif` (the forced
  facts pinned to probability 1/0 in the compiled circuit, no recompile)
  must be ≥ {WHATIF_FLOOR}× faster than conditioning afresh on
  Γ ∪ {{±fact}}.

Correctness is not traded for the speed: on a small instance every
conditioned artifact — posteriors, what-if posteriors, per-fact
marginals — is checked against brute-force possible-world enumeration to
1e-9.

Run directly for tables (``--quick`` for the CI smoke variant), or via
``pytest benchmarks/bench_e19_conditioning.py`` for the assertions.
"""

import argparse
import itertools
import time

from repro.condition import ConditionedScenario, ConstraintSet, ScenarioManager
from repro.condition.core import _parse_fact
from repro.core.pdb import ProbabilisticDatabase
from repro.logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.logic.semantics import satisfies
from repro.obs import MetricsRegistry
from repro.workloads.generators import full_tid

from tables import print_table

SEED = 19

#: Domain size for the timing instance (facts: n unary R + n² S + n unary T).
DOMAIN = 5

#: Domain size for the brute-force agreement instance (2^15 worlds).
SMALL_DOMAIN = 3

#: Γ: a #P-hard join required true, plus one fact denial — representative
#: of "integrate a view over uncertain data with known evidence".
GAMMA = ('R(x), S(x,y), T(y)', '-S("c0","c1")')

REUSE_FLOOR = 5.0
WHATIF_FLOOR = 10.0
TOL = 1e-9

# Filled by main() for run_all_tables.py / BENCH_results.json.
BENCH_RESULTS = {}


def _pdb(domain):
    return ProbabilisticDatabase(tid=full_tid(41, domain), seed=SEED)


def _atom_specs(pdb):
    """Ground-atom specs for every fact, deterministic order."""
    return [
        f'{name}({", ".join(repr(v) for v in values)})'
        for name, values, _ in pdb.tid.facts()
    ]


def _forceable_atoms(pdb):
    """Atoms usable as what-if evidence: not already pinned by Γ itself."""
    gamma_facts = {
        _parse_fact(pdb, c.text)
        for c in ConstraintSet.parse(GAMMA)
        if c.kind in ("assert", "deny")
    }
    return [
        spec
        for spec in _atom_specs(pdb)
        if _parse_fact(pdb, spec) not in gamma_facts
    ]


def _requests(pdb, total):
    """N distinct conditioned requests: posteriors and what-if posteriors."""
    atoms = _atom_specs(pdb)
    requests = [("posterior", spec, None) for spec in atoms]
    query = atoms[0]
    for spec, value in itertools.product(_forceable_atoms(pdb), (True, False)):
        if spec != query:
            requests.append(("whatif", query, {spec: value}))
    assert len(requests) >= total, f"only {len(requests)} requests available"
    return requests[:total]


def _serve(scenario, request):
    kind, query, force = request
    target = scenario if force is None else scenario.whatif(force)
    return target.posterior(query).probability


# -- the two amortization measurements ----------------------------------------


def measure_reuse(total):
    """One installed scenario serving *total* requests vs recompile-per-request."""
    pdb = _pdb(DOMAIN)
    requests = _requests(pdb, total)

    manager = ScenarioManager(pdb, registry=MetricsRegistry())
    start = time.perf_counter()
    scenario_id, _ = manager.install(GAMMA)
    install_s = time.perf_counter() - start

    start = time.perf_counter()
    served = [_serve(manager.resolve(scenario_id), r) for r in requests]
    reuse_s = time.perf_counter() - start

    start = time.perf_counter()
    recompiled = [
        _serve(ConditionedScenario.compile(pdb, GAMMA), r) for r in requests
    ]
    recompile_s = time.perf_counter() - start

    # Both sides are exact; the tolerance absorbs float summation order.
    assert all(
        abs(a - b) <= TOL for a, b in zip(served, recompiled)
    ), "reuse changed an answer"
    return {
        "requests": total,
        "install_s": install_s,
        "reuse_s": reuse_s,
        "recompile_s": recompile_s,
        # The honest comparison charges the install to the reuse side.
        "speedup": recompile_s / (install_s + reuse_s),
    }


def measure_whatif(count):
    """Re-weighting derivation vs fresh conditioning on Γ ∪ {±fact}."""
    pdb = _pdb(DOMAIN)
    atoms = _forceable_atoms(pdb)
    base = ConditionedScenario.compile(pdb, GAMMA)
    query = atoms[0]
    cases = [
        (atoms[1 + (i % (len(atoms) - 1))], i % 2 == 0) for i in range(count)
    ]

    # Serve one posterior first so Γ's circuit is compiled: that is the
    # installed-scenario steady state (install-time work is charged to the
    # reuse side in measure_reuse), and what-ifs derive from the circuit.
    base.posterior(query)

    start = time.perf_counter()
    derived = [
        base.whatif({spec: value}).posterior(query).probability
        for spec, value in cases
    ]
    cofactor_s = time.perf_counter() - start

    start = time.perf_counter()
    fresh = [
        ConditionedScenario.compile(
            pdb, list(GAMMA) + [("+" if value else "-") + spec]
        )
        .posterior(query)
        .probability
        for spec, value in cases
    ]
    fresh_s = time.perf_counter() - start

    drift = max(abs(a - b) for a, b in zip(derived, fresh))
    assert drift <= TOL, f"what-if diverged from fresh conditioning by {drift}"
    return {
        "whatifs": count,
        "cofactor_s": cofactor_s,
        "fresh_s": fresh_s,
        "speedup": fresh_s / cofactor_s,
    }


# -- brute-force agreement ----------------------------------------------------


def _as_sentence(pdb, text):
    parsed = pdb.parse_query(text)
    if isinstance(parsed, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return parsed.to_formula()
    return parsed


def _brute(pdb, specs, query=None, force=None):
    """``(P(Q∧Γ), P(Γ))`` by possible-world enumeration (oracle)."""
    gamma = ConstraintSet.parse(specs)
    forced = {_parse_fact(pdb, k): v for k, v in (force or {}).items()}
    tid = pdb.tid
    domain = tid.domain()
    sentence = _as_sentence(pdb, query) if query is not None else None
    joint = mass = 0.0
    for world, probability in tid.possible_worlds():
        if probability == 0.0:  # prodb-lint: exact -- impossible worlds
            continue
        if any((fact in world) != value for fact, value in forced.items()):
            continue
        holds = True
        for constraint in gamma:
            if constraint.kind == "assert":
                holds = _parse_fact(pdb, constraint.text) in world
            elif constraint.kind == "deny":
                holds = _parse_fact(pdb, constraint.text) not in world
            else:
                truth = satisfies(world, domain, _as_sentence(pdb, constraint.text))
                holds = truth if constraint.kind == "require" else not truth
            if not holds:
                break
        if not holds:
            continue
        mass += probability
        if sentence is not None and satisfies(world, domain, sentence):
            joint += probability
    return joint, mass


def verify_against_brute_force():
    """Every conditioned artifact on the small instance matches enumeration."""
    pdb = _pdb(SMALL_DOMAIN)
    scenario = ConditionedScenario.compile(pdb, GAMMA)
    _, gamma_mass = _brute(pdb, GAMMA)
    worst = abs(scenario.gamma_probability - gamma_mass)
    checks = 1
    for spec in _atom_specs(pdb):
        joint, _ = _brute(pdb, GAMMA, spec)
        worst = max(worst, abs(scenario.posterior(spec).probability - joint / gamma_mass))
        checks += 1
    for fact, report in scenario.fact_posteriors().items():
        spec = f"{fact[0]}({', '.join(repr(v) for v in fact[1])})"
        joint, _ = _brute(pdb, GAMMA, spec)
        worst = max(worst, abs(report.posterior - joint / gamma_mass))
        checks += 1
    forceable = _forceable_atoms(pdb)
    query = forceable[0]
    for force_spec, value in ((forceable[1], True), (forceable[2], False)):
        force = {force_spec: value}
        joint, mass = _brute(pdb, GAMMA, query, force=force)
        derived = scenario.whatif(force)
        worst = max(worst, abs(derived.posterior(query).probability - joint / mass))
        checks += 1
    return checks, worst


# -- assertions (pytest benchmarks/bench_e19_conditioning.py) -----------------


def test_e19_scenario_reuse_amortizes():
    result = measure_reuse(total=50)
    assert result["speedup"] >= REUSE_FLOOR, (
        f"installed-scenario serving only {result['speedup']:.1f}× faster "
        f"than recompile-per-request (floor {REUSE_FLOOR}×)"
    )


def test_e19_whatif_cofactor_beats_fresh_conditioning():
    result = measure_whatif(count=10)
    assert result["speedup"] >= WHATIF_FLOOR, (
        f"re-weighted what-if only {result['speedup']:.1f}× faster than fresh "
        f"conditioning (floor {WHATIF_FLOOR}×)"
    )


def test_e19_conditioned_answers_match_brute_force():
    checks, worst = verify_against_brute_force()
    assert checks >= 20
    assert worst <= TOL, f"worst brute-force deviation {worst}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small instances (CI smoke run)"
    )
    args = parser.parse_args()
    total = 50
    whatifs = 10 if args.quick else 20

    reuse = measure_reuse(total)
    whatif = measure_whatif(whatifs)
    checks, worst = verify_against_brute_force()

    per_reuse = (reuse["install_s"] + reuse["reuse_s"]) / total
    per_recompile = reuse["recompile_s"] / total
    print_table(
        f"E19a: one installed scenario vs recompiling Γ per request "
        f"(N={total} conditioned requests, domain n={DOMAIN})",
        ["serving strategy", "total", "per request", "speedup"],
        [
            (
                "recompile Γ per request",
                f"{reuse['recompile_s'] * 1e3:.0f}ms",
                f"{per_recompile * 1e3:.2f}ms",
                "1.0×",
            ),
            (
                "install once + serve (incl. install)",
                f"{(reuse['install_s'] + reuse['reuse_s']) * 1e3:.0f}ms",
                f"{per_reuse * 1e3:.2f}ms",
                f"{reuse['speedup']:.1f}×",
            ),
        ],
    )
    assert reuse["speedup"] >= REUSE_FLOOR, (
        f"scenario reuse must be ≥ {REUSE_FLOOR}×, got {reuse['speedup']:.1f}×"
    )

    print_table(
        f"E19b: what-if derivation ({whatif['whatifs']} scenarios)",
        ["derivation", "total", "per what-if", "speedup"],
        [
            (
                "fresh conditioning on Γ ∪ {±fact}",
                f"{whatif['fresh_s'] * 1e3:.0f}ms",
                f"{whatif['fresh_s'] / whatif['whatifs'] * 1e3:.2f}ms",
                "1.0×",
            ),
            (
                "compiled Γ, forced facts pinned (whatif)",
                f"{whatif['cofactor_s'] * 1e3:.0f}ms",
                f"{whatif['cofactor_s'] / whatif['whatifs'] * 1e3:.2f}ms",
                f"{whatif['speedup']:.1f}×",
            ),
        ],
    )
    assert whatif["speedup"] >= WHATIF_FLOOR, (
        f"re-weighted what-if must be ≥ {WHATIF_FLOOR}×, got {whatif['speedup']:.1f}×"
    )

    print(
        f"brute-force agreement: {checks} conditioned answers on the "
        f"n={SMALL_DOMAIN} instance, worst |Δ| = {worst:.2e} (tolerance {TOL:g})"
    )
    assert worst <= TOL

    BENCH_RESULTS.update(
        {
            "reuse_speedup": round(reuse["speedup"], 2),
            "reuse_per_request_ms": round(per_reuse * 1e3, 3),
            "recompile_per_request_ms": round(per_recompile * 1e3, 3),
            "whatif_cofactor_speedup": round(whatif["speedup"], 2),
            "brute_force_checks": checks,
            "brute_force_worst_abs_error": worst,
        }
    )


if __name__ == "__main__":
    main()
