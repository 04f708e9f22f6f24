"""Tests for the columnar (vectorized) executor of extensional plans.

Three layers of coverage:

* operator parity — hypothesis differential tests pin each columnar
  operator to its tuple-at-a-time counterpart in
  :mod:`repro.relational.algebra` within 1e-9 absolute error;
* plan parity — whole safe plans evaluated by the columnar executor and by
  the rows interpreter (:func:`repro.plans.plan.execute_boolean`, the
  oracle) on random TIDs agree within 1e-9, including through the engine
  façade, which runs every safe plan on the columnar executor;
* edge cases — empty relations, probability-0/1 rows through the
  log-space ⊕ path, joins with no shared attributes, projections to zero
  columns and scan arity mismatches.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.pdb import Method, ProbabilisticDatabase
from repro.core.tid import TupleIndependentDatabase
from repro.logic.cq import parse_cq
from repro.plans import (
    execute_boolean,
    execute_boolean_columnar,
    execute_columnar,
    project_boolean,
    safe_plan,
)
from repro.plans import plan as rows_plan
from repro.plans import vectorized
from repro.plans.plan import ScanNode
from repro.relational import ColumnarRelation, algebra, columnar
from repro.relational.columnar import columnar_from_rows, from_relation
from repro.relational.relation import Relation

from conftest import TOLERANCE, close

VALUES = ("a", "b", "c", "d")


def rows_match(columnar_rel: ColumnarRelation, row_rel: Relation) -> bool:
    """Decoded columnar rows equal the tuple-at-a-time rows within TOLERANCE."""
    decoded = columnar_rel.to_relation()
    if set(decoded.rows) != set(row_rel.rows):
        return False
    return all(close(decoded.rows[k], row_rel.rows[k]) for k in row_rel.rows)


@st.composite
def relations(draw, name="R", attributes=("x", "y")):
    rows = draw(
        st.dictionaries(
            st.tuples(*(st.sampled_from(VALUES) for _ in attributes)),
            st.floats(0.0, 1.0, allow_nan=False),
            max_size=8,
        )
    )
    return Relation(name, tuple(attributes), dict(rows))


# -- encoding round trip ------------------------------------------------------


@given(relations())
@settings(max_examples=100, deadline=None)
def test_encode_decode_round_trip(r):
    assert rows_match(from_relation(r), r)


def test_interner_codes_agree_across_relations():
    r = Relation("R", ("x",), {("a",): 0.5, ("b",): 0.25})
    s = Relation("S", ("y",), {("b",): 0.9, ("a",): 0.3})
    cr, cs = from_relation(r), from_relation(s)
    # code equality ⇔ value equality, independent of encoding order
    assert cr.columns[0][0] == cs.columns[0][1]  # both "a"
    assert cr.columns[0][1] == cs.columns[0][0]  # both "b"


def test_interner_code_of_unknown_value_is_none():
    interner = columnar.ValueInterner()
    interner.encode_column(["a", "b"])
    assert interner.code_of("a") is not None
    assert interner.code_of("never-interned") is None
    assert len(interner) == 2


# -- operator parity (differential, row vs columnar) --------------------------


@given(relations(), relations(name="S", attributes=("y", "z")))
@settings(max_examples=100, deadline=None)
def test_join_matches_row_backend(r, s):
    expected = algebra.join(r, s)
    out = columnar.join(from_relation(r), from_relation(s))
    assert out.attributes == expected.attributes
    assert rows_match(out, expected)


@given(relations())
@settings(max_examples=100, deadline=None)
def test_independent_project_matches_row_backend(r):
    for keep in (("x", "y"), ("x",), ("y",), ()):
        expected = algebra.independent_project(r, keep)
        out = columnar.independent_project(from_relation(r), keep)
        assert out.attributes == tuple(keep)
        assert rows_match(out, expected)


@given(relations(), relations())
@settings(max_examples=100, deadline=None)
def test_union_matches_row_backend(r, s):
    expected = algebra.union(r, s)
    out = columnar.union(from_relation(r), from_relation(s))
    assert rows_match(out, expected)


@given(relations())
@settings(max_examples=60, deadline=None)
def test_select_eq_matches_row_backend(r):
    for value in VALUES:
        expected = algebra.select_eq(r, "x", value)
        out = columnar.select_eq(from_relation(r), "x", value)
        assert rows_match(out, expected)


@given(relations())
@settings(max_examples=60, deadline=None)
def test_boolean_oplus_matches_row_backend(r):
    assert close(columnar.boolean_oplus(from_relation(r)), algebra.boolean_oplus(r))


# -- edge cases: empty relations through every operator -----------------------


def test_empty_relation_through_every_operator():
    e = columnar.empty("E", ("x", "y"))
    other = columnar_from_rows("R", ("y", "z"), [("a", "b")], [0.5])
    assert len(columnar.join(e, other)) == 0
    assert len(columnar.join(other, e)) == 0
    assert len(columnar.independent_project(e, ("x",))) == 0
    assert len(columnar.independent_project(e, ())) == 0
    assert len(columnar.union(e, columnar.empty("E2", ("x", "y")))) == 0
    assert len(columnar.select_eq(e, "x", "a")) == 0
    assert columnar.boolean_oplus(e) == 0.0  # prodb-lint: exact -- empty ⊕ is exactly 0
    assert len(e.to_relation()) == 0


def test_join_without_shared_attributes_is_cartesian_product():
    r = columnar_from_rows("R", ("x",), [("a",), ("b",)], [0.5, 0.25])
    s = columnar_from_rows("S", ("y",), [("c",), ("d",)], [0.8, 0.3])
    joined = columnar.join(r, s).to_relation()
    product = columnar.cartesian_product(r, s).to_relation()
    assert joined.rows == product.rows
    assert len(joined) == 4
    assert close(joined.rows[("a", "c")], 0.4)


def test_cartesian_product_rejects_shared_attributes():
    r = columnar_from_rows("R", ("x",), [("a",)], [0.5])
    with pytest.raises(ValueError, match="disjoint"):
        columnar.cartesian_product(r, r)


def test_union_rejects_schema_mismatch():
    r = columnar_from_rows("R", ("x",), [("a",)], [0.5])
    s = columnar_from_rows("S", ("y",), [("a",)], [0.5])
    with pytest.raises(ValueError, match="identical schemas"):
        columnar.union(r, s)


def test_independent_project_to_zero_columns():
    r = columnar_from_rows("R", ("x",), [("a",), ("b",)], [0.5, 0.5])
    out = columnar.independent_project(r, ())
    assert out.attributes == ()
    assert len(out) == 1
    assert close(float(out.probabilities[0]), 0.75)


# -- edge cases: probability 0 and 1 through the log-space path ---------------


def test_probability_one_saturates_group():
    r = columnar_from_rows("R", ("x",), [("a",), ("a",)], [1.0, 0.5])
    out = columnar.independent_project(r, ("x",))
    assert close(float(out.probabilities[0]), 1.0)
    assert close(columnar.boolean_oplus(r), 1.0)


def test_probability_zero_is_identity():
    r = columnar_from_rows("R", ("x",), [("a",)], [0.0])
    r2 = columnar_from_rows("R", ("x",), [("a",)], [0.3])
    out = columnar.union(r, r2)
    assert close(float(out.probabilities[0]), 0.3)
    assert columnar.boolean_oplus(r) == 0.0  # prodb-lint: exact -- log1p(-0) sums to exact 0


def test_all_zero_probabilities_stay_zero():
    r = columnar_from_rows("R", ("x",), [("a",), ("b",)], [0.0, 0.0])
    out = columnar.independent_project(r, ())
    assert float(out.probabilities[0]) == 0.0  # prodb-lint: exact -- expm1(0) is exact


def test_near_one_probabilities_stay_stable():
    n = 1000
    rows = [(f"v{i}",) for i in range(n)]
    r = columnar_from_rows("R", ("x",), rows, [1e-12] * n)
    # 1 - (1-1e-12)^1000 ≈ 1e-9; naive products would round to 0.
    out = float(columnar.independent_project(r, ()).probabilities[0])
    assert close(out, -np.expm1(n * np.log1p(-1e-12)), tolerance=1e-15)
    assert out > 0.0


# -- plan parity (row vs columnar on whole safe plans) ------------------------

SAFE_QUERIES = (
    "R(x), S(x,y)",
    "S(x,y), T(y)",
    "R(x), T(x)",
    "R(x), S(x,y), T(x)",
)


@st.composite
def random_tids(draw):
    db = TupleIndependentDatabase()
    db.add_relation("R", ("a0",))
    db.add_relation("S", ("a0", "a1"))
    db.add_relation("T", ("a0",))
    prob = st.floats(0.01, 0.99, allow_nan=False)
    for x in VALUES:
        if draw(st.booleans()):
            db.add_fact("R", (x,), draw(prob))
        if draw(st.booleans()):
            db.add_fact("T", (x,), draw(prob))
        for y in VALUES:
            if draw(st.booleans()):
                db.add_fact("S", (x, y), draw(prob))
    return db


@given(random_tids(), st.sampled_from(SAFE_QUERIES))
@settings(max_examples=60, deadline=None)
def test_safe_plan_executors_agree(db, query):
    plan = project_boolean(safe_plan(parse_cq(query), db))
    row = execute_boolean(plan, db)
    col = execute_boolean_columnar(plan, db)
    assert abs(row - col) <= TOLERANCE


@given(random_tids(), st.sampled_from(SAFE_QUERIES))
@settings(max_examples=40, deadline=None)
def test_facade_backends_agree(db, query):
    """The façade's safe-plan answer equals the rows oracle's."""
    oracle = execute_boolean(project_boolean(safe_plan(parse_cq(query), db)), db)
    answer = ProbabilisticDatabase(tid=db).probability(query, Method.SAFE_PLAN)
    assert abs(answer.probability - oracle) <= TOLERANCE
    assert answer.exact


def test_columnar_agrees_with_ground_truth(small_db):
    pdb = ProbabilisticDatabase(tid=small_db)
    for query in SAFE_QUERIES:
        answer = pdb.probability(query, Method.SAFE_PLAN)
        truth = small_db.brute_force_probability(parse_cq(query).to_formula())
        assert close(answer.probability, truth)


# -- plan executor details ----------------------------------------------------


def test_columnar_scan_arity_mismatch_raises(small_db):
    atom = parse_cq("S(x,y,z)").atoms[0]
    with pytest.raises(ValueError, match="relation arity 2 does not match"):
        execute_columnar(ScanNode(atom), small_db)


def test_columnar_scan_missing_relation_is_empty(small_db):
    atom = parse_cq("Missing(x)").atoms[0]
    out = execute_columnar(ScanNode(atom), small_db)
    assert len(out) == 0
    assert out.attributes == ("x",)


def test_columnar_scan_constant_and_repeated_variable(small_db):
    # σ_{a0 = "a"} via a constant argument
    out = execute_columnar(ScanNode(parse_cq('S("a", y)').atoms[0]), small_db)
    assert rows_match(out, Relation("S", ("y",), {("a",): 0.8, ("b",): 0.3}))
    # diagonal S(x, x)
    out = execute_columnar(ScanNode(parse_cq("S(x, x)").atoms[0]), small_db)
    assert rows_match(out, Relation("S", ("x",), {("a",): 0.8, ("b",): 0.9}))
    # a constant that appears nowhere selects nothing (and is not interned)
    out = execute_columnar(ScanNode(parse_cq('S("zzz-unseen", y)').atoms[0]), small_db)
    assert len(out) == 0


def test_columnar_scan_cache_invalidated_on_mutation(small_db):
    plan = project_boolean(safe_plan(parse_cq("R(x), S(x,y)"), small_db))
    before = execute_boolean_columnar(plan, small_db)
    small_db.add_fact("R", ("zz",), 0.99)
    small_db.add_fact("S", ("zz", "zz"), 0.99)
    after = execute_boolean_columnar(plan, small_db)
    assert after > before  # fresh facts visible ⇒ cache was dropped


def test_operator_profile_records_row_counts(small_db):
    from repro.engine.stats import OperatorProfile

    profile: list[OperatorProfile] = []
    plan = project_boolean(safe_plan(parse_cq("R(x), S(x,y)"), small_db))
    execute_boolean_columnar(plan, small_db, profile=profile)
    assert any(p.operator.startswith("scan") for p in profile)
    assert any(p.operator.startswith("join") for p in profile)
    assert all(p.seconds >= 0.0 for p in profile)
    final = profile[-1]
    assert final.rows_out == 1


# -- the façade runs every safe plan on the columnar executor -----------------


def _rows_forbidden(*args, **kwargs):
    raise AssertionError("the rows interpreter ran outside the tests")


def test_facade_runs_safe_plans_columnar_below_old_threshold(monkeypatch):
    """On 1 600 facts AUTO and SAFE_PLAN run the plan on the columnar
    executor, never on the rows interpreter, and answer what the rows
    oracle and DPLL answer."""
    db = TupleIndependentDatabase()
    for i in range(400):
        db.add_fact("R", (f"v{i}",), 0.05 + 0.9 * ((i * 37) % 100) / 100)
        for j, y in enumerate(("y", "z", "w")):
            db.add_fact("S", (f"v{i}", y), 0.1 + 0.8 * ((i * 13 + j * 7) % 50) / 50)
    assert db.fact_count() == 1600
    query = "R(x), S(x,'y')"
    pdb = ProbabilisticDatabase(tid=db)
    oracle = execute_boolean(project_boolean(safe_plan(parse_cq(query), db)), db)
    dpll = pdb.probability(query, Method.DPLL).probability
    assert close(oracle, dpll)

    columnar_runs = []
    run_columnar = vectorized.execute_columnar

    def spy(*args, **kwargs):
        columnar_runs.append(args[0])
        return run_columnar(*args, **kwargs)

    monkeypatch.setattr(vectorized, "execute_columnar", spy)
    monkeypatch.setattr(rows_plan, "execute", _rows_forbidden)
    for method in (Method.AUTO, Method.SAFE_PLAN):
        columnar_runs.clear()
        answer = pdb.probability(query, method)
        assert answer.method is Method.SAFE_PLAN
        assert columnar_runs, method
        assert answer.stats.operators
        assert close(answer.probability, oracle)
        assert close(answer.probability, dpll)


# -- explain / CLI --------------------------------------------------------------


def test_explain_answer_shows_operators(small_db):
    from repro.core.pdb import explain_answer

    pdb = ProbabilisticDatabase(tid=small_db)
    answer = pdb.probability("R(x), S(x,y)", Method.SAFE_PLAN)
    text = explain_answer("R(x), S(x,y)", answer)
    assert "scan" in text


def test_cli_backend_columnar(tmp_path, capsys, monkeypatch):
    """``query -m safe-plan --stats`` runs the plan on the columnar executor
    and prints its per-operator profile."""
    from repro.cli import main

    monkeypatch.setattr(rows_plan, "execute", _rows_forbidden)

    (tmp_path / "R.csv").write_text("x,P\na,0.5\nb,0.25\n")
    (tmp_path / "S.csv").write_text("x,y,P\na,a,0.8\na,b,0.3\nb,b,0.9\n")
    code = main(
        [
            "query",
            str(tmp_path / "R.csv"),
            str(tmp_path / "S.csv"),
            "-q",
            "R(x), S(x,y)",
            "-m",
            "safe-plan",
            "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "safe plan" in out
    assert "scan" in out
