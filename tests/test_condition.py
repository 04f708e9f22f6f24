"""Conditioning: differential tests against possible-world enumeration.

Every conditioned artifact — ``P(Q | Γ)``, per-fact posteriors, top-k
worlds, what-if derivations, and the server round-trip in both modes —
is checked against brute-force enumeration of the possible worlds, to
1e-9 (the implementations are exact; the slack is float summation order).
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.condition import (
    ConditionedScenario,
    ConstraintSet,
    InconsistentConstraints,
    ScenarioManager,
    StaleScenarioError,
    UnknownScenarioError,
    scenario_id_of,
)
from repro.condition.core import _parse_fact
from repro.core.pdb import Method, ProbabilisticDatabase
from repro.engine.session import EngineSession
from repro.logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.logic.semantics import satisfies
from repro.obs import MetricsRegistry
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.wmc.dpll import DPLLCounter

TOL = 1e-9

# Fact slots for the little universe the strategies draw over: R unary,
# S binary, T unary — enough shape for safe, #P-hard and UCQ queries
# while keeping world enumeration (2^#facts) cheap.
R_VALUES = (1, 2)
S_VALUES = ((1, 3), (2, 3), (2, 4))
T_VALUES = (3, 4)

QUERIES = (
    "R(1)",
    "T(3)",
    "R(x), S(x,y)",
    "R(x), S(x,y), T(y)",
    "S(x,y), T(y)",
    "R(x), S(x,y) | T(u), S(u,v)",
)

CONSTRAINT_POOL = (
    "+R(1)",
    "-R(2)",
    "+S(2,3)",
    "-T(4)",
    "S(x,y), T(y)",
    "R(x), S(x,y)",
    "!R(2), S(2,y), T(y)",
    "T(y)",
)

probs = st.floats(0.05, 0.95).map(lambda p: round(p, 3))


@st.composite
def small_pdb(draw) -> ProbabilisticDatabase:
    pdb = ProbabilisticDatabase(seed=13)
    for value in R_VALUES:
        pdb.add_fact("R", (value,), draw(probs))
    for pair in S_VALUES:
        pdb.add_fact("S", pair, draw(probs))
    for value in T_VALUES:
        pdb.add_fact("T", (value,), draw(probs))
    return pdb


@st.composite
def constraint_sets(draw) -> list:
    specs = draw(
        st.lists(st.sampled_from(CONSTRAINT_POOL), min_size=1, max_size=3, unique=True)
    )
    return specs


# -- the brute-force reference ------------------------------------------------


def _as_sentence(pdb: ProbabilisticDatabase, text: str):
    parsed = pdb.parse_query(text)
    if isinstance(parsed, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
        return parsed.to_formula()
    return parsed


def _holds(pdb, domain, world, constraint) -> bool:
    if constraint.kind == "assert":
        return _parse_fact(pdb, constraint.text) in world
    if constraint.kind == "deny":
        return _parse_fact(pdb, constraint.text) not in world
    truth = satisfies(world, domain, _as_sentence(pdb, constraint.text))
    return truth if constraint.kind == "require" else not truth


def brute_conditioned(pdb, specs, query_text=None, force=None):
    """``(P(Q∧Γ), P(Γ))`` by full world enumeration, honoring what-if force.

    Forced facts restrict the enumeration but keep their prior factor in
    the weights; divide it out for the derived-scenario convention
    (evidence contributes no prior mass).
    """
    gamma = ConstraintSet.parse(specs)
    forced = {
        _parse_fact(pdb, key) if isinstance(key, str) else key: value
        for key, value in (force or {}).items()
    }
    tid = pdb.tid
    domain = tid.domain()
    sentence = _as_sentence(pdb, query_text) if query_text is not None else None
    joint = gamma_mass = 0.0
    for world, probability in tid.possible_worlds():
        if probability == 0.0:  # prodb-lint: exact -- impossible worlds
            continue
        if any((fact in world) != value for fact, value in forced.items()):
            continue
        if not all(_holds(pdb, domain, world, c) for c in gamma):
            continue
        gamma_mass += probability
        if sentence is not None and satisfies(world, domain, sentence):
            joint += probability
    return joint, gamma_mass


def _forced_prior_factor(pdb, force) -> float:
    factor = 1.0
    for key, value in force.items():
        fact = _parse_fact(pdb, key) if isinstance(key, str) else key
        prior = pdb.tid.probability_of_fact(fact[0], fact[1])
        factor *= prior if value else 1.0 - prior
    return factor


# -- exact posterior ----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(pdb=small_pdb(), specs=constraint_sets(), query=st.sampled_from(QUERIES))
def test_posterior_matches_brute_force(pdb, specs, query):
    joint, gamma_mass = brute_conditioned(pdb, specs, query)
    if gamma_mass <= 0.0:  # prodb-lint: exact -- unsatisfiable Γ
        with pytest.raises(InconsistentConstraints):
            ConditionedScenario.compile(pdb, specs)
        return
    scenario = ConditionedScenario.compile(pdb, specs)
    assert abs(scenario.gamma_probability - gamma_mass) <= TOL
    answer = scenario.posterior(query)
    assert answer.exact
    assert abs(answer.probability - joint / gamma_mass) <= TOL
    assert abs(answer.joint - joint) <= TOL


@settings(max_examples=15, deadline=None)
@given(
    pdb=small_pdb(),
    specs=constraint_sets(),
    fact_spec=st.sampled_from(("R(1)", "R(2)", "S(2,3)", "T(3)")),
    value=st.booleans(),
    query=st.sampled_from(QUERIES),
)
def test_whatif_matches_brute_force_and_fresh_conditioning(
    pdb, specs, fact_spec, value, query
):
    _, gamma_mass = brute_conditioned(pdb, specs)
    if gamma_mass <= 0.0:  # prodb-lint: exact
        return
    scenario = ConditionedScenario.compile(pdb, specs)
    force = {fact_spec: value}
    joint, forced_mass = brute_conditioned(pdb, specs, query, force=force)
    if forced_mass <= 0.0:  # prodb-lint: exact -- contradictory evidence
        with pytest.raises(InconsistentConstraints):
            scenario.whatif(force)
        return
    derived = scenario.whatif(force)
    # Evidence contributes no prior factor to the derived Γ mass.
    expected_gamma = forced_mass / _forced_prior_factor(pdb, force)
    assert abs(derived.gamma_probability - expected_gamma) <= TOL
    answer = derived.posterior(query)
    assert abs(answer.probability - joint / forced_mass) <= TOL
    # The cofactor path agrees with recompiling Γ ∪ {±fact} from scratch.
    fresh_specs = list(specs) + [("+" if value else "-") + fact_spec]
    fresh = ConditionedScenario.compile(pdb, fresh_specs)
    assert abs(fresh.posterior(query).probability - answer.probability) <= TOL
    # Once the base circuit is compiled (any differentiation-backed call),
    # what-ifs derive by re-weighting it instead of DPLL — same answers.
    scenario.fact_posteriors()
    warm = scenario.whatif(force)
    assert abs(warm.gamma_probability - expected_gamma) <= TOL
    assert abs(warm.posterior(query).probability - joint / forced_mass) <= TOL
    atom_joint, _ = brute_conditioned(pdb, specs, fact_spec, force=force)
    assert (
        abs(warm.posterior(fact_spec).probability - atom_joint / forced_mass)
        <= TOL
    )


# -- per-fact posteriors ------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(pdb=small_pdb(), specs=constraint_sets())
def test_fact_posteriors_match_brute_force(pdb, specs):
    _, gamma_mass = brute_conditioned(pdb, specs)
    if gamma_mass <= 0.0:  # prodb-lint: exact
        return
    scenario = ConditionedScenario.compile(pdb, specs)
    reports = scenario.fact_posteriors()
    assert reports, "Γ mentions at least one fact"
    for fact, report in reports.items():
        spec = f"{fact[0]}({', '.join(str(v) for v in fact[1])})"
        in_gamma, _ = brute_conditioned(pdb, specs, spec)
        assert abs(report.posterior - in_gamma / gamma_mass) <= TOL, fact


@settings(max_examples=10, deadline=None)
@given(
    pdb=small_pdb(),
    specs=constraint_sets(),
    fact_spec=st.sampled_from(("R(1)", "S(2,3)")),
    value=st.booleans(),
)
def test_derived_fact_posteriors_match_brute_force(pdb, specs, fact_spec, value):
    """What-if derivations differentiate the family's circuit under their
    pins; their per-fact posteriors agree too."""
    _, gamma_mass = brute_conditioned(pdb, specs)
    if gamma_mass <= 0.0:  # prodb-lint: exact
        return
    force = {fact_spec: value}
    _, forced_mass = brute_conditioned(pdb, specs, force=force)
    if forced_mass <= 0.0:  # prodb-lint: exact
        return
    derived = ConditionedScenario.compile(pdb, specs).whatif(force)
    for fact, report in derived.fact_posteriors().items():
        spec = f"{fact[0]}({', '.join(str(v) for v in fact[1])})"
        in_gamma, _ = brute_conditioned(pdb, specs, spec, force=force)
        assert abs(report.posterior - in_gamma / forced_mass) <= TOL, fact


# -- top-k worlds -------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(pdb=small_pdb(), specs=constraint_sets(), k=st.integers(1, 6))
def test_top_k_worlds_match_enumeration(pdb, specs, k):
    _, gamma_mass = brute_conditioned(pdb, specs)
    if gamma_mass <= 0.0:  # prodb-lint: exact
        return
    scenario = ConditionedScenario.compile(pdb, specs)
    facts = scenario.world_facts()
    # Reference: posterior of every assignment of the Γ-relevant facts.
    reference = []
    for bits in itertools.product((False, True), repeat=len(facts)):
        assignment = dict(zip(facts, bits))
        _, mass = brute_conditioned(pdb, specs, force=assignment)
        if mass > 0.0:  # prodb-lint: exact -- Γ-consistent assignments only
            reference.append((mass / gamma_mass, assignment))
    reference.sort(key=lambda pair: -pair[0])
    candidates = scenario.top_k_worlds(k)
    assert len(candidates) == min(k, len(reference))
    for rank, candidate in enumerate(candidates):
        # Exact k-best: posteriors match the sorted reference pointwise
        # (ties may permute worlds, so compare the posterior sequence).
        assert abs(candidate.posterior - reference[rank][0]) <= TOL
        # And each returned world's own posterior is what enumeration says.
        _, mass = brute_conditioned(pdb, specs, force=candidate.world)
        assert abs(candidate.posterior - mass / gamma_mass) <= TOL
    # Best first.
    posteriors = [c.posterior for c in candidates]
    assert posteriors == sorted(posteriors, reverse=True)


# -- scenario manager ---------------------------------------------------------


def _pdb() -> ProbabilisticDatabase:
    pdb = ProbabilisticDatabase(seed=3)
    pdb.add_fact("R", (1,), 0.4)
    pdb.add_fact("R", (2,), 0.7)
    pdb.add_fact("S", (1, 3), 0.5)
    pdb.add_fact("S", (2, 3), 0.6)
    pdb.add_fact("T", (3,), 0.8)
    return pdb


@pytest.mark.parametrize(
    "seed, probability, samples",
    [
        (1, 0.8993937644341798, 2165),
        (2, 0.8982751154734409, 2165),
        (3, 0.8747834872979213, 2165),
    ],
)
def test_sample_posterior_stream_is_pinned(seed, probability, samples):
    # Values captured from the dedicated conditioned sampler this loop
    # replaced: the Γ-rejection draws and the 1/P(Γ) budget must not move.
    scenario = ConditionedScenario.compile(_pdb(), ["+R(1)", "S(x,y), T(y)"])
    answer = scenario.sample_posterior(
        "R(x), S(x,y)", epsilon=0.2, delta=0.05, rng=random.Random(seed)
    )
    assert (answer.probability, answer.samples) == (probability, samples)  # prodb-lint: exact
    exact = scenario.posterior("R(x), S(x,y)").probability
    assert abs(answer.probability - exact) <= 0.2 * exact


def test_manager_installs_are_idempotent_and_content_addressed():
    pdb = _pdb()
    manager = ScenarioManager(pdb, registry=MetricsRegistry())
    sid1, s1 = manager.install(["+R(1)", "S(x,y), T(y)"])
    # Same Γ, different spelling (order, whitespace) → same id, cached circuit.
    sid2, s2 = manager.install("S(x,y), T(y) ; +R(1)")
    assert sid1 == sid2
    assert s1 is s2
    assert manager.scenario_count() == 1
    assert sid1 == scenario_id_of(
        pdb.tid.fingerprint(), ConstraintSet.parse(["+R(1)", "S(x,y), T(y)"])
    )
    assert manager.resolve(sid1) is s1


def test_manager_unknown_stale_and_drop():
    pdb = _pdb()
    manager = ScenarioManager(pdb, registry=MetricsRegistry())
    with pytest.raises(UnknownScenarioError):
        manager.resolve("s0000000000000000")
    sid, _ = manager.install(["+R(1)"])
    # Mutating the database invalidates the scenario.
    pdb.add_fact("T", (9,), 0.5)
    with pytest.raises(StaleScenarioError):
        manager.resolve(sid)
    assert manager.drop(sid) is True
    assert manager.drop(sid) is False  # idempotent
    assert manager.scenario_count() == 0


def test_manager_recompiles_after_eviction():
    pdb = _pdb()
    registry = MetricsRegistry()
    manager = ScenarioManager(pdb, maxsize=1, registry=registry)
    sid1, _ = manager.install(["+R(1)"])
    manager.install(["-R(2)"])  # evicts sid1's circuit, id survives
    scenario = manager.resolve(sid1)
    assert scenario.constraints.specs() == ["+R(1)"]
    assert registry.snapshot().get("scenario_recompiles_total", 0) >= 1


def test_manager_install_on_miss_verifies_the_id():
    pdb = _pdb()
    manager = ScenarioManager(pdb, registry=MetricsRegistry())
    gamma = ConstraintSet.parse(["+R(1)"])
    sid = scenario_id_of(pdb.tid.fingerprint(), gamma)
    # A worker that never saw the install conditions from the specs alone.
    scenario = manager.resolve(sid, specs=gamma.specs())
    assert scenario.constraints.specs() == ["+R(1)"]
    # …but an id minted against other contents is rejected, not adopted.
    with pytest.raises(StaleScenarioError):
        manager.resolve("s" + "0" * 16, specs=gamma.specs())


def test_unsatisfiable_constraints_raise():
    with pytest.raises(InconsistentConstraints):
        ConditionedScenario.compile(_pdb(), ["+R(1)", "-R(1)"])


# -- the pinned path ----------------------------------------------------------


def _wide_pdb() -> ProbabilisticDatabase:
    pdb = _pdb()
    pdb.add_fact("S", (2, 4), 0.3)
    pdb.add_fact("T", (4,), 0.45)
    pdb.add_fact("U", (1,), 0.35)
    pdb.add_fact("U", (2,), 0.55)
    pdb.add_fact("V", (1, 5), 0.25)
    pdb.add_fact("V", (2, 5), 0.65)
    pdb.add_fact("V", (2, 6), 0.15)
    return pdb


PINNED_GAMMAS = {
    "literals+ucq": (["+R(1)", "-T(4)", "R(x), S(x,y) | S(u,v), T(v)"], True),
    "literal+forbid": (["+S(2,3)", "!R(x), S(x,y), T(y)"], False),
}


@pytest.mark.parametrize("specs, correlated", PINNED_GAMMAS.values(), ids=PINNED_GAMMAS.keys())
def test_pinned_scenarios_never_enter_the_general_loop(monkeypatch, specs, correlated):
    """Γ's literals and the what-if evidence are pins, and one positive (or
    one negated positive) query constraint is counted on the clause path:
    no step of a pinned scenario reaches DPLL's general loop."""
    entered = []
    general_loop = DPLLCounter._count_formula

    def spy(self, *args, **kwargs):
        entered.append(args[0])
        return general_loop(self, *args, **kwargs)

    monkeypatch.setattr(DPLLCounter, "_count_formula", spy)
    pdb = _wide_pdb()
    manager = ScenarioManager(pdb, registry=MetricsRegistry())
    sid, scenario = manager.install(specs)
    _, gamma_mass = brute_conditioned(pdb, specs)
    assert abs(scenario.gamma_probability - gamma_mass) <= TOL
    joint, _ = brute_conditioned(pdb, specs, "S(1,3)")
    assert abs(scenario.posterior("S(1,3)").probability - joint / gamma_mass) <= TOL
    force = {"R(2)": True}
    joint, forced_mass = brute_conditioned(pdb, specs, "S(2,3)", force=force)
    derived = manager.derived(sid, force)
    assert abs(derived.posterior("S(2,3)").probability - joint / forced_mass) <= TOL
    assert scenario.fact_posteriors() and scenario.top_k_worlds(3)
    if correlated:
        joint, _ = brute_conditioned(pdb, specs, "R(x), S(x,y)")
        answer = scenario.posterior("R(x), S(x,y)")
        assert abs(answer.probability - joint / gamma_mass) <= TOL
    assert entered == []


def test_independent_query_posterior_is_its_prior():
    """A query sharing no fact with Γ is independent of it: its posterior
    is its DPLL probability."""
    pdb = _wide_pdb()
    query = "U(x), V(x,y)"
    prior = pdb.probability(query, Method.DPLL).probability
    for specs, _ in PINNED_GAMMAS.values():
        scenario = ConditionedScenario.compile(pdb, specs)
        posterior = scenario.posterior(query).probability
        assert abs(posterior - prior) <= 1e-15 * prior


# -- server round-trip --------------------------------------------------------


SERVER_GAMMA = ["+R(1)", "S(x,y), T(y)"]
SERVER_CASES = ("R(2)", "R(x), S(x,y)", "R(x), S(x,y), T(y)")


@pytest.mark.parametrize("mode", ("threads", "processes"))
def test_server_conditioned_answers_match_brute_force(mode):
    pdb = _pdb()
    expected = {}
    for query in SERVER_CASES:
        joint, gamma_mass = brute_conditioned(pdb, SERVER_GAMMA, query)
        expected[query] = joint / gamma_mass
    whatif_joint, whatif_mass = brute_conditioned(
        pdb, SERVER_GAMMA, "S(1,3)", force={"R(2)": True}
    )
    session = EngineSession(_pdb(), seed=11)
    config = ServerConfig(mode=mode, workers=2)
    with ServerThread(session, config, registry=MetricsRegistry()) as thread:
        with ServerClient("127.0.0.1", thread.port) as client:
            installed = client.condition(SERVER_GAMMA)
            assert installed["ok"], installed
            sid = installed["scenario"]
            # Idempotent: reinstalling returns the same id.
            assert client.condition(SERVER_GAMMA)["scenario"] == sid
            for query in SERVER_CASES:
                response = client.query(query, scenario=sid)
                assert response["ok"], response
                assert abs(response["probability"] - expected[query]) <= TOL, (
                    query,
                    response,
                )
            whatif = client.query("S(1,3)", scenario=sid, force={"R(2)": True})
            assert whatif["ok"], whatif
            assert abs(whatif["probability"] - whatif_joint / whatif_mass) <= TOL
            # Conditioned and unconditioned answers never coalesce.
            plain = client.query("R(2)")
            assert abs(plain["probability"] - 0.7) <= TOL
            # Error surfaces: unknown id, then clean drop.
            missing = client.query("R(2)", scenario="s" + "f" * 16)
            assert not missing["ok"] and missing["error"] == "unknown_scenario"
            unsat = client.condition(["+R(1)", "-R(1)"])
            assert not unsat["ok"] and unsat["error"] == "unsatisfiable"
            assert client.drop_condition(sid)["dropped"] is True
            assert client.drop_condition(sid)["dropped"] is False
            gone = client.query("R(2)", scenario=sid)
            assert not gone["ok"] and gone["error"] == "unknown_scenario"


def test_http_condition_endpoints():
    from repro.server import http_request

    session = EngineSession(_pdb(), seed=11)
    with ServerThread(session, ServerConfig(), registry=MetricsRegistry()) as thread:
        host, port = "127.0.0.1", thread.port
        status, body = http_request(
            host, port, "POST", "/condition", {"constraints": SERVER_GAMMA}
        )
        assert status == 200, (status, body)
        sid = json.loads(body)["scenario"]
        status, body = http_request(
            host, port, "POST", "/query", {"query": "R(2)", "scenario": sid}
        )
        assert status == 200 and json.loads(body)["ok"]
        status, body = http_request(
            host, port, "POST", "/query", {"query": "R(2)", "scenario": "snope"}
        )
        assert status == 404 and json.loads(body)["error"] == "unknown_scenario"
        status, body = http_request(
            host, port, "POST", "/condition", {"constraints": ["+R(1)", "-R(1)"]}
        )
        assert status == 400 and json.loads(body)["error"] == "unsatisfiable"
        status, body = http_request(host, port, "GET", "/metrics")
        assert status == 200
        assert "scenarios_installed 1" in body
        assert "scenario_installs_total 1" in body  # counted once, not per layer
        assert "engine_cache_entries" in body
        status, body = http_request(host, port, "DELETE", f"/condition/{sid}")
        assert status == 200 and json.loads(body)["dropped"] is True
        status, body = http_request(host, port, "GET", "/healthz")
        assert status == 200 and json.loads(body)["scenarios"] == 0
