"""Unit tests for repro.core.tid (the TID model and possible worlds)."""

import math
import random

import pytest

from repro.core.tid import TupleIndependentDatabase
from repro.logic.parser import parse
from repro.logic.transform import COMPLEMENT_SUFFIX
from repro.sanitize import SanitizerError, prodb_sanitize

from conftest import close


def test_add_fact_infers_schema():
    db = TupleIndependentDatabase()
    db.add_fact("S", ("a", "b"), 0.5)
    assert db.relations["S"].arity == 2


def test_add_relation_schema_conflict():
    db = TupleIndependentDatabase()
    db.add_relation("R", ("x",))
    with pytest.raises(ValueError):
        db.add_relation("R", ("x", "y"))


def test_probability_of_absent_fact_is_zero(small_db):
    assert small_db.probability_of_fact("R", ("zzz",)) == 0.0  # prodb-lint: exact
    assert small_db.probability_of_fact("Nope", ("a",)) == 0.0  # prodb-lint: exact


def test_domain_active_vs_explicit():
    db = TupleIndependentDatabase()
    db.add_fact("R", ("a",), 0.5)
    assert db.domain() == ("a",)
    db.explicit_domain = frozenset(("a", "b", "c"))
    assert db.domain() == ("a", "b", "c")


def test_domain_is_memoized_until_the_next_mutation():
    db = TupleIndependentDatabase()
    db.add_fact("R", ("a",), 0.5)
    first = db.domain()
    assert db.domain() is first
    db.add_fact("R", ("b",), 0.5)
    second = db.domain()
    assert second == ("a", "b") and db.domain() is second
    db.set_fact("S", ("c", "a"), 0.5)
    third = db.domain()
    assert third == ("a", "b", "c") and db.domain() is third
    db.explicit_domain = frozenset(("a", "z"))
    assert db.domain() == ("a", "z")
    db.explicit_domain = None
    assert db.domain() == third
    # copies and derived databases start without a memo
    assert db.copy().domain() == third and db.copy().domain() is not third


def test_stale_domain_memo_is_caught_by_the_sanitizer():
    db = TupleIndependentDatabase()
    db.add_fact("R", ("a",), 0.5)
    db.domain()
    db.relations["R"].add(("b",), 0.5)  # direct mutation, no touch()
    previous = prodb_sanitize(False)
    try:
        assert db.domain() == ("a",)  # stale, silently: why touch() is required
        prodb_sanitize(True)
        with pytest.raises(SanitizerError, match=r"touch\(\)"):
            db.domain()
        db.touch()
        assert db.domain() == ("a", "b")
    finally:
        prodb_sanitize(previous)


def test_possible_worlds_probabilities_sum_to_one(small_db):
    total = sum(p for _, p in small_db.possible_worlds())
    assert close(total, 1.0)


def test_possible_worlds_count(small_db):
    worlds = list(small_db.possible_worlds())
    assert len(worlds) == 2 ** small_db.fact_count()


def test_certain_tuples_in_every_world():
    db = TupleIndependentDatabase()
    db.add_fact("R", ("a",), 1.0)
    db.add_fact("R", ("b",), 0.5)
    for world, _ in db.possible_worlds():
        assert ("R", ("a",)) in world


def test_world_probability_matches_enumeration(small_db):
    for world, probability in small_db.possible_worlds():
        assert close(small_db.world_probability(world), probability)


def test_world_probability_impossible_tuple(small_db):
    assert small_db.world_probability({("R", ("zzz",))}) == 0.0  # prodb-lint: exact


def test_brute_force_probability_single_tuple(small_db):
    assert close(small_db.brute_force_probability(parse("R('a')")), 0.5)


def test_brute_force_probability_disjunction(small_db):
    got = small_db.brute_force_probability(parse("R('a') | R('b')"))
    assert close(got, 1 - 0.5 * 0.75)


def test_brute_force_tautology_and_contradiction(small_db):
    assert close(small_db.brute_force_probability(parse("R('a') | ~R('a')")), 1.0)
    assert close(small_db.brute_force_probability(parse("R('a') & ~R('a')")), 0.0)


def test_sample_world_distribution(small_db):
    rng = random.Random(3)
    hits = sum(
        1 for _ in range(4000) if ("R", ("a",)) in small_db.sample_world(rng)
    )
    assert abs(hits / 4000 - 0.5) < 0.05


def test_with_complements():
    db = TupleIndependentDatabase()
    db.add_fact("S", ("a", "b"), 0.3)
    db.add_fact("R", ("a",), 0.5)
    db.explicit_domain = frozenset(("a", "b"))
    sentence = parse("forall x. forall y. (~S(x,y) | R(x))")
    extended = db.with_complements(sentence)
    comp = extended.relations["S" + COMPLEMENT_SUFFIX]
    assert close(comp.probability(("a", "b")), 0.7)
    # absent tuples have complement probability 1
    assert close(comp.probability(("b", "a")), 1.0)
    assert len(comp) == 4


def test_map_probabilities(small_db):
    halved = small_db.map_probabilities(lambda p: p / 2)
    assert close(halved.probability_of_fact("R", ("a",)), 0.25)
    assert close(small_db.probability_of_fact("R", ("a",)), 0.5)


def test_is_symmetric_detection():
    db = TupleIndependentDatabase()
    for u in ("a", "b"):
        db.add_fact("R", (u,), 0.5)
        for v in ("a", "b"):
            db.add_fact("S", (u, v), 0.3)
    assert db.is_symmetric()
    db.add_fact("R", ("a",), 0.9)  # unequal probabilities now
    assert not db.is_symmetric()


def test_is_symmetric_requires_full_cross_product(small_db):
    assert not small_db.is_symmetric()


def test_world_count(small_db):
    assert small_db.world_count() == 2 ** small_db.fact_count()
    assert small_db.log_world_count() == pytest.approx(small_db.fact_count())


def test_from_facts_mapping():
    db = TupleIndependentDatabase.from_facts(
        {"R": {("a",): 0.5}, "S": {("a", "b"): 0.7}}, domain=("a", "b")
    )
    assert db.fact_count() == 2
    assert db.domain() == ("a", "b")


def test_from_facts_triples():
    db = TupleIndependentDatabase.from_facts([("R", ("a",), 0.5)])
    assert db.probability_of_fact("R", ("a",)) == 0.5  # prodb-lint: exact


def test_copy_is_deep(small_db):
    clone = small_db.copy()
    clone.add_fact("R", ("zzz",), 0.5)
    assert small_db.probability_of_fact("R", ("zzz",)) == 0.0  # prodb-lint: exact
