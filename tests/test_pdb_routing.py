"""Routing edge cases for the façade's AUTO strategy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pdb import Method, ProbabilisticDatabase
from repro.core.tid import TupleIndependentDatabase
from repro.engine.session import EngineSession
from repro.lifted.derive import derive
from repro.lifted.engine import LiftedEngine
from repro.lifted.errors import NonLiftableError
from repro.logic.cq import ConjunctiveQuery, parse_cq, parse_ucq
from repro.logic.formulas import Atom
from repro.logic.terms import Const, Var
from repro.plans import execute_boolean, execute_boolean_columnar, project_boolean, safe_plan
from repro.server.ladder import MethodLadder
from repro.workloads.generators import full_tid, random_tid

from conftest import close


@pytest.fixture
def pdb():
    return ProbabilisticDatabase(tid=random_tid(23, 3), seed=5)


def test_auto_prefers_lifted(pdb):
    assert pdb.probability("R(x), S(x,y)").method is Method.SAFE_PLAN


def test_auto_uses_dpll_within_limit(pdb):
    answer = pdb.probability("R(x), S(x,y), T(y)")
    assert answer.method is Method.DPLL
    assert answer.exact


def test_auto_falls_back_to_karp_luby_beyond_limit():
    # Complete H0 over 7 constants: DPLL needs ≈8 000 calls, past the
    # budget of 2 789 = ⌈3·63·ln(2/δ)/ε²⌉ at ε = 0.5.
    facade = ProbabilisticDatabase(tid=full_tid(23, 7), seed=5)
    facade.mc_epsilon = 0.5
    answer = facade.probability("R(x), S(x,y), T(y)")
    assert answer.method is Method.KARP_LUBY
    assert not answer.exact
    exact = ProbabilisticDatabase(tid=facade.tid).probability(
        "R(x), S(x,y), T(y)", Method.DPLL
    )
    assert exact.probability > 0.05
    assert abs(answer.probability - exact.probability) / exact.probability < 0.2


def test_auto_falls_back_to_monte_carlo_when_dnf_explodes(pdb):
    # a ∀-sentence whose lineage is a large CNF: DNF conversion explodes,
    # so once DPLL (≈8 000 calls) passes its budget of 4 358 at ε = 0.4
    # the router must use naive Monte Carlo.
    db = full_tid(31, 7)
    facade = ProbabilisticDatabase(tid=db, seed=7)
    facade.mc_epsilon = 0.4
    sentence = "forall x. forall y. (R(x) | S(x,y) | T(y))"
    answer = facade.probability(sentence)
    assert answer.method is Method.MONTE_CARLO
    exact = ProbabilisticDatabase(tid=db).probability(sentence, Method.DPLL)
    assert abs(answer.probability - exact.probability) < 0.08


def _diagonal_h1(families=30):
    db = TupleIndependentDatabase()
    for i in range(families):
        db.add_fact("R", (i,), 0.3 + 0.01 * i)
        db.add_fact("S", (i, i), 0.5)
        db.add_fact("T", (i,), 0.7 - 0.01 * i)
    return db


def _path(length=100):
    db = TupleIndependentDatabase()
    for i in range(length):
        db.add_fact("R", (i,), 0.2 + 0.005 * i)
        db.add_fact("T", (i,), 0.6)
        db.add_fact("S", (i, i), 0.4)
        if i + 1 < length:
            db.add_fact("S", (i + 1, i), 0.3)
    return db


@pytest.mark.parametrize(
    "query, db, variables",
    [
        ("R(x), S(x,y) | S(u,v), T(v)", _diagonal_h1(), 90),
        ("R(x), S(x,y), T(y)", _path(), 399),
    ],
    ids=["h1-diagonal", "h0-path"],
)
def test_auto_counts_wide_lineages_exactly_when_dpll_is_cheap(query, db, variables):
    """Past 40 variables AUTO still counts exactly: the DPLL call budget
    scales with the work of the sampler it would otherwise run."""
    facade = ProbabilisticDatabase(tid=db, seed=3)
    answer = facade.probability(query)
    assert answer.method is Method.DPLL and answer.exact
    assert f"grounded: {variables} lineage variables" in answer.detail
    direct = facade.probability(query, Method.DPLL)
    assert answer.probability == direct.probability  # prodb-lint: exact


def test_sampled_answer_names_the_exceeded_budget():
    facade = ProbabilisticDatabase(tid=full_tid(23, 4), seed=5, mc_epsilon=100.0)
    answer = facade.probability("R(x), S(x,y), T(y)")
    assert answer.method is Method.KARP_LUBY
    stop = "DPLL stopped after 2 calls > budget 1 (24 variables, ε=100.0, δ=0.05)"
    assert stop in answer.detail and stop in answer.stats.reason


def test_constant_lineage_stays_exact_under_any_budget():
    facade = ProbabilisticDatabase(tid=full_tid(23, 3), seed=5, mc_epsilon=1e9)
    answer = facade.probability("R(x), S(x,y), Z(y)")  # Z is empty: lineage false
    assert answer.method is Method.DPLL and answer.probability == 0.0  # prodb-lint: exact


def test_detail_mentions_blocking_subquery(pdb):
    answer = pdb.probability("R(x), S(x,y), T(y)")
    assert "lifted failed" in answer.detail


def test_forced_method_overrides_auto(pdb):
    answer = pdb.probability("R(x), S(x,y)", Method.MONTE_CARLO)
    assert answer.method is Method.MONTE_CARLO


def test_explain_hard_query(pdb):
    text = pdb.explain("R(x), S(x,y), T(y)")
    assert "dpll" in text


def test_seed_makes_sampling_deterministic(pdb):
    a = pdb.probability("R(x), S(x,y)", Method.MONTE_CARLO).probability
    b = pdb.probability("R(x), S(x,y)", Method.MONTE_CARLO).probability
    assert a == b


def test_exact_routes_consistent_on_sentences(pdb):
    sentence = "forall x. forall y. (S(x,y) -> R(x))"
    lifted = pdb.probability(sentence, Method.LIFTED).probability
    dpll = pdb.probability(sentence, Method.DPLL).probability
    brute = pdb.probability(sentence, Method.BRUTE_FORCE).probability
    assert close(lifted, dpll)
    assert close(dpll, brute)


# -- extensional-first AUTO: one structural decision -------------------------

# Variable sets of the atoms are root paths of the forest x → {y, z}, u, so
# every drawn query is hierarchical by construction; () is a ground atom.
_PATHS = ((), ("x",), ("x", "y"), ("x", "z"), ("u",))
_CONSTANTS = ("c0", "c1")


@st.composite
def _hierarchical_cq_and_tid(draw):
    """A self-join-free hierarchical CQ with constants and repeated
    variables, and a TID whose relations may be missing, empty, or hold
    tuples with p ∈ {0, 1}."""
    atoms, db = [], TupleIndependentDatabase()
    for index in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_PATHS))
        extras = draw(
            st.lists(
                st.sampled_from(path + _CONSTANTS),
                min_size=0 if path else 1,
                max_size=1 if path else 2,
            )
        )
        names = draw(st.permutations(list(path) + extras))
        args = tuple(Const(n) if n in _CONSTANTS else Var(n) for n in names)
        atoms.append(Atom(f"R{index}", args))
        state = draw(st.sampled_from(("filled",) * 6 + ("empty", "missing")))
        if state == "missing":
            continue
        db.add_relation(f"R{index}", tuple(f"a{i}" for i in range(len(args))))
        if state == "filled":
            rows = st.tuples(*[st.sampled_from(_CONSTANTS)] * len(args))
            for values in draw(st.lists(rows, min_size=2, max_size=4, unique=True)):
                p = draw(st.sampled_from((0.5, 0.25, 0.9, 0.7, 1.0, 0.0)))
                db.add_fact(f"R{index}", values, p)
    db.explicit_domain = frozenset(_CONSTANTS)
    return ConjunctiveQuery(tuple(atoms)), db


@settings(max_examples=150, deadline=None)
@given(_hierarchical_cq_and_tid())
def test_auto_agrees_with_every_exact_route_on_safe_queries(case):
    query, db = case
    auto = ProbabilisticDatabase(tid=db).probability(query)
    assert auto.method is Method.SAFE_PLAN and auto.stats.reason
    expected = db.brute_force_probability(query.to_formula())
    assert close(auto.probability, expected)
    safe = ProbabilisticDatabase(tid=db).probability(query, Method.SAFE_PLAN)
    assert close(safe.probability, expected)
    plan = project_boolean(safe_plan(query, db))
    for execute in (execute_boolean, execute_boolean_columnar):  # rows oracle, engine
        assert close(execute(plan, db), expected)
    lifted = ProbabilisticDatabase(tid=db).probability(query, Method.LIFTED)
    assert close(lifted.probability, expected)


@pytest.mark.parametrize(
    "query", ["R(x), S(x,y), S(x,z)", "R(x), S(x,y) | T(u), S(u,v)"]
)
def test_auto_still_lifts_self_joins_and_unions(pdb, query):
    answer = pdb.probability(query)
    assert answer.method is Method.LIFTED
    assert answer.lifted_trace
    assert "lifted rules" in answer.stats.reason


@pytest.fixture
def lifted_engines(monkeypatch):
    """Counts every LiftedEngine constructed, wherever it is imported."""
    built = []
    original = LiftedEngine.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(LiftedEngine, "__init__", counting)
    return built


def test_unsafe_self_join_free_cq_never_builds_a_lifted_engine(pdb, lifted_engines):
    answer = pdb.probability("T(z), R(x), S(x,y), T2(y)")
    assert answer.method is Method.DPLL
    assert not lifted_engines
    # the blocking subquery is the connected non-hierarchical part only
    assert "no root variable in R(x), S(x, y), T2(y)" in answer.detail
    assert "T(z)" not in answer.detail
    assert answer.stats.reason.endswith("→ grounded")
    assert answer.stats.reason in pdb.explain("T(z), R(x), S(x,y), T2(y)")

    ladder = MethodLadder(EngineSession(pdb.tid))
    served = ladder.evaluate("R(x), S(x,y), T(y)")
    assert (served.rung, served.method) == ("exact", "dpll")
    assert "no root variable in R(x), S(x, y), T(y)" in served.detail
    assert not lifted_engines
    pdb.probability("R(x), S(x,y), S(x,z)")  # the counter does see the others
    assert lifted_engines


@pytest.mark.parametrize(
    "method",
    [Method.AUTO, Method.LIFTED, Method.SAFE_PLAN, Method.DPLL, Method.BRUTE_FORCE],
)
def test_arity_mismatch_is_a_value_error_on_every_route(pdb, method):
    with pytest.raises(ValueError, match="R is stored with arity 1"):
        pdb.probability("R(x,y), S(x,y)", method)
    with pytest.raises(ValueError, match="arity"):
        pdb.probability("exists x. exists y. (R(x,y) & S(x,y))", method)
    with pytest.raises(ValueError, match="arity"):
        pdb.probability("T(x) | R(x,y), S(x,y)", method)
    # an unknown predicate is an empty relation, not a schema error
    assert pdb.probability("R(x), Nope(x,y)", method).probability == 0.0  # prodb-lint: exact


# The entry points past probability(): without the check they answered {},
# ZeroDivisionError("P(F) = 0") and "circuit is unsatisfiable".


def test_answers_rejects_arity_mismatch(pdb):
    session = EngineSession(pdb)
    for answers in (pdb.answers, session.answers):
        with pytest.raises(ValueError, match="R is stored with arity 1"):
            answers("R(x,y), S(x,y)", ["x"])


def test_tuple_posteriors_rejects_arity_mismatch(pdb):
    for posteriors in (pdb.tuple_posteriors, EngineSession(pdb).tuple_posteriors):
        with pytest.raises(ValueError, match="R is stored with arity 1"):
            posteriors("R(x,y), S(x,y)")


def test_most_probable_world_rejects_arity_mismatch(pdb):
    for world in (pdb.most_probable_world, EngineSession(pdb).most_probable_world):
        with pytest.raises(ValueError, match="R is stored with arity 1"):
            world("R(x,y), S(x,y)")


# -- liftability decided once per query shape ---------------------------------

# H1 (#P-hard) twice, differing only in predicate and variable names.
_H1 = "A1(x), B1(x,y) | B1(u,v), C1(v)"
_H1_RENAMED = "A2(p), B2(p,q) | B2(s,t), C2(t)"


def _h1_pdb():
    tid = TupleIndependentDatabase()
    for k in (1, 2):
        tid.add_fact(f"A{k}", ("a",), 0.5)
        tid.add_fact(f"B{k}", ("a", "b"), 0.6)
        tid.add_fact(f"B{k}", ("b", "b"), 0.3)
        tid.add_fact(f"C{k}", ("b",), 0.7)
    return ProbabilisticDatabase(tid=tid, seed=5)


def test_renamed_nonliftable_ucq_is_one_shape_miss_then_a_hit():
    derive.cache_clear()
    with pytest.raises(NonLiftableError) as first:
        derive(parse_ucq(_H1))
    with pytest.raises(NonLiftableError) as second:
        derive(parse_ucq(_H1_RENAMED))
    info = derive.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert (first.value.cache_hit, second.value.cache_hit) == (False, True)
    # each verdict names the stuck subquery in the query's own names
    assert "B2(s, t)" in str(second.value.subquery)
    assert "B1" not in str(second.value)


def test_nonliftable_shape_never_builds_a_lifted_engine(lifted_engines):
    derive.cache_clear()
    pdb = _h1_pdb()
    for text, own, hit in ((_H1, "B1(u, v)", 0), (_H1_RENAMED, "B2(s, t)", 1)):
        answer = pdb.probability(text)
        assert answer.method is Method.DPLL
        assert own in answer.stats.reason and own in answer.detail
        assert answer.stats.reason.endswith("→ grounded")
        assert answer.stats.counters["derivation_cache_hit"] == hit
        brute = pdb.probability(text, Method.BRUTE_FORCE).probability
        assert close(answer.probability, brute)
    assert "derivation_cache_hit=1" in pdb.explain(_H1_RENAMED)

    served = MethodLadder(EngineSession(pdb)).evaluate("A2(m), B2(m,n) | B2(o,r), C2(r)")
    assert (served.rung, served.method) == ("exact", "dpll")
    assert "B2(o, r)" in served.detail
    assert not lifted_engines
    assert derive.cache_info().misses == 1


def test_constant_equality_pattern_is_its_own_shape():
    derive.cache_clear()
    assert not derive(parse_cq("R(x,'a'), S(x,'a')")).cache_hit
    assert not derive(parse_cq("R(x,'a'), S(x,'b')")).cache_hit
    assert derive(parse_cq("R2(z,'c'), S2(z,'c')")).cache_hit
    assert derive(parse_cq("R2(z,'c'), S2(z,'d')")).cache_hit
    assert derive.cache_info().misses == 2


def test_liftable_self_join_still_lifts_from_a_cached_shape(pdb):
    derive.cache_clear()
    tid = pdb.tid.copy()
    for name in ("R", "S"):
        for values in list(tid.relations[name].rows):
            tid.add_fact(f"{name}9", values, tid.probability_of_fact(name, values))
    renamed = ProbabilisticDatabase(tid=tid)
    first = renamed.probability("R(x), S(x,y), S(x,z)")
    second = renamed.probability("R9(u), S9(u,v), S9(u,w)")
    for answer, hit in ((first, 0), (second, 1)):
        assert answer.method is Method.LIFTED
        assert answer.lifted_trace
        assert answer.stats.counters["derivation_cache_hit"] == hit
    assert close(first.probability, second.probability)
    assert any("S9(" in step.query for step in second.lifted_trace)
    grounded = renamed.probability("R9(u), S9(u,v), S9(u,w)", Method.DPLL)
    assert close(second.probability, grounded.probability)
