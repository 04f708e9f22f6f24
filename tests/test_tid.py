"""Unit tests for repro.core.tid (the TID model and possible worlds)."""

import math

import pytest

from repro.core.tid import TupleIndependentDatabase
from repro.logic.parser import parse
from repro.logic.transform import COMPLEMENT_SUFFIX
from repro.relational.relation import Relation
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


def test_relation_digest_is_maintained_per_write_and_order_free():
    relation = Relation("S", ("a", "b"))
    assert relation.digest() == relation.full_digest() == 0
    for values, p in [(("a", "b"), 0.5), (("b", "c"), 0.25), (("a", "b"), 0.5)]:
        relation.add(values, p)  # the repeat ⊕-combines the stored row
        assert relation.digest() == relation.full_digest()
    relation.replace(("b", "c"), 0.9)
    relation.replace(("b", "c"), 0.25)
    assert relation.digest() == relation.full_digest()
    assert relation.version == 5
    reordered = Relation("S", ("a", "b"))
    reordered.add(("b", "c"), 0.25)
    reordered.add(("a", "b"), 0.75)
    assert reordered.digest() == relation.digest()  # insertion order is irrelevant
    assert relation.copy().digest() == relation.digest()


def test_fingerprint_is_over_relation_digests_and_domain():
    db = TupleIndependentDatabase()
    db.add_fact("R", ("a",), 0.5)
    db.add_fact("Audit", ("z",), 1.0)
    fp, reads_r = db.fingerprint(), db.read_fingerprint(["R"])
    db.add_fact("Audit", ("y",), 1.0)
    assert db.fingerprint() != fp
    assert db.read_fingerprint(["R"]) == reads_r  # Audit is not read
    assert db.read_fingerprint(["R", "U"]) != reads_r  # U absent, still named
    db.add_relation("U", ("a0",))
    assert db.read_fingerprint(["R", "U"]) != db.read_fingerprint(["R"])
    db.explicit_domain = frozenset({"a", "y", "z"})
    assert db.read_fingerprint(["R"]) != reads_r
    assert db.copy().fingerprint() == db.fingerprint()
    # a direct Relation.add updates R's digest by itself; the whole-database
    # memo, like domain(), waits for touch()
    before, reads_before = db.fingerprint(), db.read_fingerprint(["R"])
    db.relations["R"].add(("b",), 0.5)
    assert db.read_fingerprint(["R"]) != reads_before
    db.touch()
    assert db.fingerprint() != before


def test_direct_rows_write_is_caught_by_the_sanitizer():
    db = TupleIndependentDatabase()
    db.add_fact("R", ("a",), 0.5)
    db.fingerprint()  # builds R's digest
    db.relations["R"].rows[("b",)] = 0.5  # bypasses Relation.add
    db.touch()
    previous = prodb_sanitize(True)
    try:
        with pytest.raises(SanitizerError, match="written directly"):
            db.fingerprint()
        with pytest.raises(SanitizerError, match="written directly"):
            db.read_fingerprint(["R"])
    finally:
        prodb_sanitize(previous)


def test_stale_fingerprint_memo_is_caught_by_the_sanitizer():
    db = TupleIndependentDatabase()
    db.add_fact("R", ("a",), 0.5)
    stale = db.fingerprint()
    db.relations["R"].add(("b",), 0.5)  # direct mutation, no touch()
    previous = prodb_sanitize(False)
    try:
        assert db.fingerprint() == stale  # memoized per version, silently
        prodb_sanitize(True)
        with pytest.raises(SanitizerError, match=r"touch\(\)"):
            db.fingerprint()
        db.touch()
        assert db.fingerprint() != stale
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
