"""E4 — Theorem 4.3: the dichotomy for (self-join-free) queries.

Regenerates the classification table of the paper's query gallery — decided
purely from syntax — and validates each PTIME verdict by comparing lifted
inference with the possible-worlds oracle on random databases.
"""

import pytest

from repro.lifted.derive import derive
from repro.lifted.engine import lifted_probability
from repro.lifted.errors import NonLiftableError
from repro.lifted.safety import Complexity, cq_is_safe, decide_safety
from repro.logic.cq import parse_cq, parse_ucq
from repro.workloads.generators import random_tid

from tables import print_table

GALLERY = [
    ("R(x)", "PTIME"),
    ("S(x,y)", "PTIME"),
    ("R(x), S(x,y)", "PTIME"),
    ("R(x), S(x,y), U(x)", "PTIME"),
    ("R(x), T(y)", "PTIME"),
    ("R(x), S(x,y), T(y)", "#P-hard"),  # H0's CQ (Thm 2.2)
    ("S(x,y), T(y), U(x)", "#P-hard"),
    ("R(x,y), R(y,z)", "#P-hard"),  # hierarchical yet hard (self-join)
    ("R(x), S(x,y) | T(u), S(u,v)", "PTIME"),  # Q_J
    ("R(x), S(x,y) | S(u,v), T(v)", "#P-hard"),  # H1
]

SCHEMA = (("R", 1), ("S", 2), ("T", 1), ("U", 1))


def parse_any(text):
    return parse_ucq(text) if "|" in text else parse_cq(text)


def classification_rows():
    rows = []
    for text, expected in GALLERY:
        query = parse_any(text)
        verdict = decide_safety(query)
        hierarchical = (
            all(not q.has_self_joins() for q in getattr(query, "disjuncts", [query]))
            and all(q.is_hierarchical() for q in getattr(query, "disjuncts", [query]))
        )
        rows.append(
            (text, verdict.complexity.value, expected, "yes" if hierarchical else "no")
        )
        assert verdict.complexity.value == expected, text
    return rows


def test_e04_classifications_match_theory():
    classification_rows()


def test_e04_hierarchy_criterion_equals_engine_for_sjf_cqs():
    for text, _ in GALLERY:
        if "|" in text:
            continue
        query = parse_cq(text)
        if query.has_self_joins():
            continue
        assert cq_is_safe(query) == decide_safety(query).is_safe, text


def test_e04_ptime_verdicts_evaluate_correctly():
    schema_db = random_tid(3, 3, schema=SCHEMA)
    for text, expected in GALLERY:
        if expected != "PTIME" or "R(x,y)" in text:
            continue
        query = parse_any(text)
        got = lifted_probability(query, schema_db)
        want = schema_db.brute_force_probability(query.to_formula())
        assert abs(got - want) < 1e-9, text


def test_e04_hard_verdicts_really_block_the_engine():
    db = random_tid(4, 2, schema=SCHEMA)
    for text, expected in GALLERY:
        if expected != "#P-hard" or "R(x,y)" in text:
            continue
        with pytest.raises(NonLiftableError):
            lifted_probability(parse_any(text), db)


def _time_a_derivation(benchmark, query):
    """Time decide_safety on a cold shape cache: a real derivation, not a
    lookup of the previous round's verdict."""
    return benchmark.pedantic(
        decide_safety, args=(query,), setup=derive.cache_clear, rounds=50
    )


@pytest.mark.benchmark(group="e04-dichotomy")
def test_e04_decide_safety_cq(benchmark):
    query = parse_cq("R(x), S(x,y), T(y)")
    verdict = _time_a_derivation(benchmark, query)
    assert verdict.complexity is Complexity.SHARP_P_HARD
    assert not verdict.cache_hit


@pytest.mark.benchmark(group="e04-dichotomy")
def test_e04_decide_safety_ucq(benchmark):
    query = parse_ucq("R(x), S(x,y) | T(u), S(u,v)")
    verdict = _time_a_derivation(benchmark, query)
    assert verdict.complexity is Complexity.PTIME
    assert not verdict.cache_hit


# Filled by main() for run_all_tables.py / BENCH_results.json.
BENCH_RESULTS = {}


def main():
    rows = classification_rows()
    print_table(
        "E4: Theorem 4.3 dichotomy classification",
        ["query", "decided", "paper", "hierarchical"],
        rows,
    )
    # classification_rows asserts every verdict matches the paper's.
    BENCH_RESULTS.update({"queries_classified": len(rows), "matches_paper": True})


if __name__ == "__main__":
    main()
