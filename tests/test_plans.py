"""Unit tests for repro.plans: plans, safe plans, dissociations, bounds."""

import pytest

from repro.logic.cq import parse_cq
from repro.logic.terms import Var
from repro.plans.bounds import (
    extensional_bounds,
    oblivious_database,
    plan_lower_bound,
    plan_upper_bound,
)
from repro.plans.dissociation import (
    Dissociation,
    all_dissociations,
    minimal_dissociations,
)
from repro.plans.plan import (
    JoinNode,
    ProjectNode,
    ScanNode,
    execute,
    execute_boolean,
    plan_atoms,
    plan_variables,
    project_boolean,
)
from repro.plans.safe_plan import UnsafePlanError, safe_plan, try_safe_plan
from repro.plans.vectorized import execute_boolean_columnar
from repro.workloads.generators import random_tid

from conftest import close


@pytest.fixture
def db():
    return random_tid(17, 3)


# -- plan execution --------------------------------------------------------------


def test_scan_renames_columns(small_db):
    atom = parse_cq("S(x,y)").atoms[0]
    rel = execute(ScanNode(atom), small_db)
    assert rel.attributes == ("x", "y")
    assert len(rel) == 3


def test_scan_filters_constants(small_db):
    atom = parse_cq("S('a', y)").atoms[0]
    rel = execute(ScanNode(atom), small_db)
    assert rel.attributes == ("y",)
    assert set(rel.rows) == {("a",), ("b",)}


def test_scan_repeated_variable_filters_diagonal(small_db):
    atom = parse_cq("S(x,x)").atoms[0]
    rel = execute(ScanNode(atom), small_db)
    assert set(rel.rows) == {("a",), ("b",)}


def test_scan_missing_relation_is_empty(small_db):
    atom = parse_cq("Nope(x)").atoms[0]
    assert len(execute(ScanNode(atom), small_db)) == 0


def test_plan_variables_and_atoms(small_db):
    q = parse_cq("R(x), S(x,y)")
    plan = JoinNode(ScanNode(q.atoms[0]), ScanNode(q.atoms[1]))
    assert plan_variables(plan) == {Var("x"), Var("y")}
    assert len(plan_atoms(plan)) == 2


def test_execute_boolean_requires_zero_columns(small_db):
    q = parse_cq("R(x)")
    with pytest.raises(ValueError):
        execute_boolean(ScanNode(q.atoms[0]), small_db)


def test_footnote9_plans(small_db):
    # Plan1 = γ⊕(R ⋈ S) vs Plan2 = γ⊕(R ⋈ γ_{x,⊕}(S)); only Plan2 is safe.
    q = parse_cq("R(x), S(x,y)")
    r_atom, s_atom = q.atoms
    x = Var("x")
    plan1 = project_boolean(JoinNode(ScanNode(r_atom), ScanNode(s_atom)))
    plan2 = project_boolean(
        JoinNode(ScanNode(r_atom), ProjectNode(ScanNode(s_atom), (x,)))
    )
    exact = small_db.brute_force_probability(q.to_formula())
    v1 = execute_boolean(plan1, small_db)
    v2 = execute_boolean(plan2, small_db)
    assert close(v2, exact)
    assert v1 >= exact - 1e-12
    assert v1 != pytest.approx(exact)  # plan1 is genuinely unsafe here


# -- safe plans ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "R(x)",
        "S(x,y)",
        "R(x), S(x,y)",
        "R(x), T(y)",
        "R(x), S(x,y), U(x)",
        "R(x), S(x,y), W(x,y)",
        "S(x,y), W(x,y)",
    ],
)
def test_safe_plan_exactness(text):
    q = parse_cq(text)
    # Only the relations the query names: a fact of any other relation
    # would double the brute-force world count and change nothing.
    arities = {"R": 1, "S": 2, "T": 1, "U": 1, "W": 2}
    schema = tuple((atom.predicate, arities[atom.predicate]) for atom in q.atoms)
    db = random_tid(3, 3, schema=schema)
    plan = project_boolean(safe_plan(q))
    got = execute_boolean(plan, db)
    want = db.brute_force_probability(q.to_formula())
    assert close(got, want)
    assert close(execute_boolean_columnar(plan, db), want)


def test_safe_plan_fails_on_h0():
    with pytest.raises(UnsafePlanError):
        safe_plan(parse_cq("R(x), S(x,y), T(y)"))


def test_safe_plan_rejects_self_joins():
    with pytest.raises(UnsafePlanError):
        safe_plan(parse_cq("R(x,y), R(y,z)"))


def test_try_safe_plan():
    assert try_safe_plan(parse_cq("R(x), S(x,y)")) is not None
    assert try_safe_plan(parse_cq("R(x), S(x,y), T(y)")) is None


def test_safe_plan_with_constant(db):
    domain = db.domain()
    q = parse_cq(f"R('{domain[0]}'), S('{domain[0]}', y)")
    got = execute_boolean(project_boolean(safe_plan(q)), db)
    want = db.brute_force_probability(q.to_formula())
    assert close(got, want)


# -- dissociations ---------------------------------------------------------------------


def test_h0_minimal_dissociations():
    h0 = parse_cq("R(x), S(x,y), T(y)")
    minimal = minimal_dissociations(h0)
    descriptions = {str(d) for d in minimal}
    assert descriptions == {"R(x) + (y)", "T(y) + (x)"}


def test_all_dissociations_are_hierarchical():
    h0 = parse_cq("R(x), S(x,y), T(y)")
    for d in all_dissociations(h0):
        assert d.dissociated_query().is_hierarchical()


def test_trivial_dissociation_for_hierarchical_query():
    q = parse_cq("R(x), S(x,y)")
    minimal = minimal_dissociations(q)
    assert len(minimal) == 1
    assert minimal[0].is_trivial()


def test_dissociated_database_duplicates_tuples(db):
    h0 = parse_cq("R(x), S(x,y), T(y)")
    d = next(d for d in minimal_dissociations(h0) if not d.is_trivial())
    widened = d.dissociated_database(db)
    name = d.dissociated_query().atoms[
        [i for i, extra in enumerate(d.added) if extra][0]
    ].predicate
    original = name.replace("__diss", "")
    assert len(widened.relations[name]) == len(db.relations[original]) * len(
        db.domain()
    )


def test_dissociation_rejects_self_joins():
    with pytest.raises(ValueError):
        list(all_dissociations(parse_cq("R(x,y), R(y,z)")))


# -- Theorem 6.1 bounds ---------------------------------------------------------------


def test_every_plan_upper_bounds(db):
    h0 = parse_cq("R(x), S(x,y), T(y)")
    exact = db.brute_force_probability(h0.to_formula())
    for d in minimal_dissociations(h0):
        assert plan_upper_bound(h0, db, d) >= exact - 1e-9


def test_every_plan_lower_bounds(db):
    h0 = parse_cq("R(x), S(x,y), T(y)")
    exact = db.brute_force_probability(h0.to_formula())
    for d in minimal_dissociations(h0):
        assert plan_lower_bound(h0, db, d) <= exact + 1e-9


def test_bounds_sandwich_many_seeds():
    h0 = parse_cq("R(x), S(x,y), T(y)")
    for seed in range(6):
        db = random_tid(seed, 3)
        exact = db.brute_force_probability(h0.to_formula())
        bounds = extensional_bounds(h0, db)
        assert bounds.contains(exact)
        assert bounds.plan_count == 2


def test_bounds_tight_for_safe_query(db):
    q = parse_cq("R(x), S(x,y)")
    bounds = extensional_bounds(q, db)
    exact = db.brute_force_probability(q.to_formula())
    assert close(bounds.lower, exact, 1e-6) or bounds.lower <= exact
    assert close(bounds.upper, exact)


def test_oblivious_database_lowers_shared_tuples(db):
    h0 = parse_cq("R(x), S(x,y), T(y)")
    rescaled = oblivious_database(h0, db)
    lowered = 0
    for name, values, p in db.facts():
        p2 = rescaled.probability_of_fact(name, values)
        assert p2 <= p + 1e-12
        if p2 < p - 1e-12:
            lowered += 1
    assert lowered > 0


def test_scan_arity_mismatch_raises(small_db):
    atom = parse_cq("S(x,y,z)").atoms[0]
    with pytest.raises(ValueError, match="relation arity 2 does not match"):
        execute(ScanNode(atom), small_db)
