"""White-box tests for the lifted engine's rule machinery."""

import pytest

from repro.lifted.derive import (
    _merged_separator,
    _separator_candidates,
    _symbol_components,
)
from repro.lifted.engine import LiftedEngine
from repro.lifted.errors import NonLiftableError
from repro.logic.cq import parse_cq, parse_ucq
from repro.logic.terms import Var
from repro.workloads.generators import random_tid

from conftest import close


def test_separator_candidates_positions():
    candidates = _separator_candidates(parse_cq("R(x), S(x,y)"))
    assert len(candidates) == 1
    var, positions = candidates[0]
    assert var == Var("x")
    assert positions == {"R": frozenset({0}), "S": frozenset({0})}


def test_separator_candidates_empty_for_nonhierarchical():
    assert _separator_candidates(parse_cq("R(x), S(x,y), T(y)")) == []


def test_separator_candidates_multiple_positions():
    candidates = _separator_candidates(parse_cq("S(x,x)"))
    (_, positions), = candidates
    assert positions["S"] == frozenset({0, 1})


def test_merged_separator_success():
    q = parse_ucq("R(x), S(x,y) | T(u), S(u,v)")
    merged = _merged_separator(q.disjuncts)
    assert merged == (Var("x"), Var("u"))


def test_merged_separator_position_conflict():
    q = parse_ucq("R(x), S(x,y) | S(u,v), T(v)")
    assert _merged_separator(q.disjuncts) is None


def test_merged_separator_repeated_position_resolution():
    # S(x,x) offers both positions; the other disjunct forces position 0
    q = parse_ucq("S(x,x) | R(u), S(u,v)")
    merged = _merged_separator(q.disjuncts)
    assert merged is not None


def test_symbol_components_partition():
    q = parse_ucq("R(x) | S(x,y) | R(u), T(u)")
    groups = _symbol_components(q.disjuncts)
    # R-disjunct and R,T-disjunct share R; S stands alone
    assert len(groups) == 2


def test_engine_trace_records_rules():
    db = random_tid(2, 3)
    engine = LiftedEngine(db, record_trace=True)
    engine.probability(parse_cq("R(x), S(x,y)"))
    rules = [step.rule for step in engine.trace]
    assert rules[0] == "separator"
    assert "ground" in rules


def test_engine_trace_disabled_by_default():
    db = random_tid(2, 3)
    engine = LiftedEngine(db)
    engine.probability(parse_cq("R(x)"))
    assert engine.trace == []


def test_memoization_cache_grows(random_db):
    engine = LiftedEngine(random_db)
    engine.probability(parse_cq("R(x), S(x,y)"))
    assert len(engine._memo) > 0


def test_nonliftable_reports_subquery(random_db):
    engine = LiftedEngine(random_db)
    with pytest.raises(NonLiftableError) as excinfo:
        engine.probability(parse_cq("R(x), S(x,y), T(y)"))
    assert "S" in str(excinfo.value.subquery)


def test_empty_relation_handled(random_db):
    # query over a predicate with no tuples: probability 0
    engine = LiftedEngine(random_db)
    assert engine.probability(parse_cq("Missing(x)")) == 0.0  # prodb-lint: exact


def test_probability_one_tuples(random_db):
    db = random_db.copy()
    for values in list(db.relations["R"].rows):
        db.relations["R"].add(values, 1.0)
    engine = LiftedEngine(db)
    assert close(engine.probability(parse_cq("R(x)")), 1.0)


def test_rule_application_str():
    from repro.lifted.engine import RuleApplication

    step = RuleApplication("separator", "R(x)", "variable x")
    assert "separator" in str(step)
    assert "variable x" in str(step)


def test_basic_rules_flag_allows_simple_queries(random_db):
    engine = LiftedEngine(random_db, use_inclusion_exclusion=False)
    got = engine.probability(parse_cq("R(x), S(x,y)"))
    full = LiftedEngine(random_db).probability(parse_cq("R(x), S(x,y)"))
    assert close(got, full)
