"""Tuple-independent databases (TIDs) — the paper's central data model.

A TID assigns every possible tuple an independent marginal probability
(Sec. 2). We store only the tuples with non-zero probability, as relations
with a probability column; every unlisted tuple implicitly has probability 0.

This module also provides the reference *possible worlds* semantics: worlds
are subsets of the stored tuples, with the product probability of Eq. (3).
Enumerating worlds is exponential and only used as a ground-truth oracle on
small inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..logic.formulas import Formula
from ..logic.semantics import Fact, satisfies
from ..logic.transform import COMPLEMENT_SUFFIX, polarity_map
from ..relational.relation import Relation
from ..sanitize import SanitizerError, sanitize_enabled


@dataclass
class TupleIndependentDatabase:
    """A TID: named relations, each row carrying a marginal probability."""

    relations: dict[str, Relation] = field(default_factory=dict)
    explicit_domain: Optional[frozenset] = None
    _version: int = field(default=0, init=False, repr=False, compare=False)
    _fingerprint_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _domain_text_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _domain_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- construction --------------------------------------------------------

    def add_relation(self, name: str, attributes: Sequence[str]) -> Relation:
        """Create (or return) a relation with the given attribute names."""
        if name in self.relations:
            existing = self.relations[name]
            if existing.attributes != tuple(attributes):
                raise ValueError(f"relation {name} exists with a different schema")
            return existing
        relation = Relation(name, tuple(attributes))
        self.relations[name] = relation
        self.touch()
        return relation

    def add_fact(self, name: str, values: Iterable, probability: float = 1.0) -> None:
        """Insert a tuple, creating the relation on first use.

        Inserting an already-present tuple follows the engine-wide
        duplicate-row policy of :meth:`repro.relational.relation.Relation.add`:
        the probabilities ⊕-combine. Use :meth:`set_fact` to overwrite.
        """
        values = tuple(values)
        if name not in self.relations:
            attributes = tuple(f"a{i}" for i in range(len(values)))
            self.add_relation(name, attributes)
        self.relations[name].add(values, probability)
        self.touch()

    def set_fact(self, name: str, values: Iterable, probability: float) -> None:
        """Set a tuple's marginal outright, replacing any stored value."""
        values = tuple(values)
        if name not in self.relations:
            attributes = tuple(f"a{i}" for i in range(len(values)))
            self.add_relation(name, attributes)
        self.relations[name].replace(values, probability)
        self.touch()

    @staticmethod
    def from_facts(
        facts: Mapping[str, Mapping[tuple, float]] | Iterable[tuple[str, tuple, float]],
        domain: Optional[Iterable] = None,
    ) -> "TupleIndependentDatabase":
        """Build a TID from ``{relation: {values: p}}`` or (name, values, p) triples."""
        db = TupleIndependentDatabase()
        if isinstance(facts, Mapping):
            for name, rows in facts.items():
                for values, prob in rows.items():
                    db.add_fact(name, values, prob)
        else:
            for name, values, prob in facts:
                db.add_fact(name, values, prob)
        if domain is not None:
            db.explicit_domain = frozenset(domain)
        return db

    # -- basic accessors ------------------------------------------------------

    def relation(self, name: str) -> Relation:
        return self.relations[name]

    def probability_of_fact(self, name: str, values: Iterable) -> float:
        """Marginal probability of a tuple; 0.0 when not stored."""
        relation = self.relations.get(name)
        return relation.probability(values) if relation else 0.0

    def facts(self) -> Iterator[tuple[str, tuple, float]]:
        """All stored (relation, values, probability) triples."""
        for name in sorted(self.relations):
            for values, prob in sorted(
                self.relations[name].items(), key=lambda kv: repr(kv[0])
            ):
                yield name, values, prob

    def fact_count(self) -> int:
        return sum(len(r) for r in self.relations.values())

    # -- change tracking / fingerprinting -------------------------------------

    @property
    def version(self) -> int:
        """A counter bumped by every mutation through the TID's own methods."""
        return self._version

    def touch(self) -> None:
        """Record an out-of-band mutation (e.g. a direct ``Relation.add``).

        Mutations performed through :meth:`add_relation` / :meth:`add_fact`
        / :meth:`set_fact` call this automatically. A direct
        ``Relation.add`` / ``replace`` keeps its relation's digest and
        version current by itself, so :meth:`read_fingerprint` (the
        session's CQ/UCQ keys) and the per-relation scan memo notice it
        without help. What still needs this call is everything memoized per
        TID :attr:`version`: the :meth:`domain` and :meth:`fingerprint`
        memos, and any outside cache keyed on :attr:`version`; also a
        relation swapped in or removed through ``tid.relations`` directly.
        Writing ``relation.rows[...]`` directly is covered by nothing: it
        leaves the relation's digest stale (``REPRO_SANITIZE=1`` reports it
        on the next fingerprint).
        """
        self._version += 1

    def fingerprint(self) -> str:
        """A content hash of the database: facts, probabilities and domain.

        Two TIDs with the same relations (name, arity, rows and
        probabilities) and the same explicit domain share a fingerprint,
        even across :meth:`copy`. It hashes the sorted ``(name, arity,
        relation digest)`` triples (see
        :meth:`repro.relational.relation.Relation.digest`) plus the explicit
        domain, so it costs O(#relations) once each digest exists — writes
        keep the digests current in O(1) — and it is memoized per
        ``(version, explicit_domain)`` like :meth:`domain`, so repeated
        calls on an unchanged database are O(1).

        :class:`repro.engine.EngineSession` keys a CQ/UCQ's cached work on
        :meth:`read_fingerprint` of the predicates it names instead — a
        positive query is domain-independent, so its answer is a function of
        those relations alone — and falls back to this whole-database hash
        for every other sentence (``forall``, negation, ``->``), whose answer
        depends on the active domain and hence on every relation.
        """
        key = (self._version, self.explicit_domain)
        if self._fingerprint_cache is None or self._fingerprint_cache[0] != key:
            self._fingerprint_cache = (key, self.read_fingerprint(self.relations))
        elif (
            sanitize_enabled()
            and self._fingerprint_cache[1] != self.read_fingerprint(self.relations)
        ):
            raise SanitizerError(
                "stale fingerprint() memo: a direct Relation.add/replace lacks its tid.touch()"
            )
        return self._fingerprint_cache[1]

    def read_fingerprint(self, predicates: Iterable[str]) -> str:
        """A content hash of the named relations plus the explicit domain.

        A name with no stored relation hashes as absent, so creating that
        relation later changes the hash. Under ``REPRO_SANITIZE=1`` each
        maintained relation digest is cross-checked against a fresh one:
        a mismatch means ``relation.rows`` was written directly.
        """
        check = sanitize_enabled()
        parts = []
        for name in sorted(predicates):
            relation = self.relations.get(name)
            if relation is None:
                parts.append(f"{name!r} absent")
                continue
            if check and relation.digest() != relation.full_digest():
                raise SanitizerError(
                    f"stale digest of relation {name}: its rows were written "
                    "directly instead of through Relation.add/replace"
                )
            parts.append(f"{name!r} {relation.arity} {relation.digest():x}")
        if self.explicit_domain is not None:
            parts.append(self._explicit_domain_text())
        return hashlib.blake2b("\n".join(parts).encode(), digest_size=16).hexdigest()

    def _explicit_domain_text(self) -> str:
        domain = self.explicit_domain
        if self._domain_text_cache is None or self._domain_text_cache[0] is not domain:
            self._domain_text_cache = (domain, f"domain {sorted(domain, key=repr)!r}")
        return self._domain_text_cache[1]

    def domain(self) -> tuple:
        """The active domain (or the explicit one when set), sorted; memoized
        per ``(version, explicit_domain)`` exactly like :meth:`fingerprint`,
        so a direct ``Relation.add`` must be announced with :meth:`touch`."""
        key = (self._version, self.explicit_domain)
        if self._domain_cache is None or self._domain_cache[0] != key:
            self._domain_cache = (key, self._scan_domain())
        elif sanitize_enabled() and self._domain_cache[1] != self._scan_domain():
            raise SanitizerError(
                "stale domain() memo: a direct Relation.add/replace lacks its tid.touch()"
            )
        return self._domain_cache[1]

    def _scan_domain(self) -> tuple:
        if self.explicit_domain is not None:
            return tuple(sorted(self.explicit_domain, key=repr))
        values: set = set()
        for relation in self.relations.values():
            values.update(relation.active_domain())
        return tuple(sorted(values, key=repr))

    def copy(self) -> "TupleIndependentDatabase":
        return TupleIndependentDatabase(
            {name: rel.copy() for name, rel in self.relations.items()},
            self.explicit_domain,
        )

    # -- possible-worlds semantics (Sec. 2) ----------------------------------

    def possible_worlds(self) -> Iterator[tuple[frozenset[Fact], float]]:
        """Enumerate (world, probability) pairs; exponential, oracle only.

        Tuples with probability exactly 1 are included in every world, and
        probability-0 tuples never appear, keeping the enumeration as small
        as possible.
        """
        certain: list[Fact] = []
        uncertain: list[tuple[Fact, float]] = []
        for name, values, prob in self.facts():
            if prob >= 1.0:
                certain.append((name, values))
            elif prob > 0.0:
                uncertain.append(((name, values), prob))
        base = frozenset(certain)
        for bits in itertools.product((False, True), repeat=len(uncertain)):
            probability = 1.0
            members: list[Fact] = []
            for include, (fact, prob) in zip(bits, uncertain):
                if include:
                    probability *= prob
                    members.append(fact)
                else:
                    probability *= 1.0 - prob
            yield base | frozenset(members), probability

    def world_probability(self, world: Iterable[Fact]) -> float:
        """Eq. (3): the probability of one specific world."""
        world = frozenset(world)
        probability = 1.0
        for name, values, prob in self.facts():
            if (name, values) in world:
                probability *= prob
            else:
                probability *= 1.0 - prob
        if any(
            # Only an exactly-impossible fact zeroes a world's probability.
            self.probability_of_fact(name, values) == 0.0  # prodb-lint: exact
            for name, values in world
        ):
            return 0.0
        return probability

    def brute_force_probability(self, sentence: Formula) -> float:
        """Reference PQE by possible-world enumeration (Eq. 1)."""
        domain = self.domain()
        total = 0.0
        for world, probability in self.possible_worlds():
            if probability == 0.0:  # prodb-lint: exact -- skip impossible worlds
                continue
            if satisfies(world, domain, sentence):
                total += probability
        return total

    def marginal(self, name: str, values: Iterable) -> float:
        """Eq. (2): the marginal of a tuple (trivially its stored probability)."""
        return self.probability_of_fact(name, values)

    # -- transformations -------------------------------------------------------

    def with_complements(self, sentence: Formula) -> "TupleIndependentDatabase":
        """Add complement relations ``R__neg`` for negatively-occurring symbols.

        Implements the probability-preserving rewrite in the proof of
        Theorem 4.1: for each possible tuple ``t`` of a negated relation
        ``R``, the complement relation holds ``t`` with probability
        ``1 - p(t)``. Possible tuples range over the full cross product of
        the domain, because absent tuples (probability 0) have complement
        probability 1.
        """
        negative = {
            name for name, signs in polarity_map(sentence).items() if signs == {-1}
        }
        result = self.copy()
        domain = self.domain()
        arities = _predicate_arities(sentence)
        for name in sorted(negative):
            arity = arities[name]
            source = self.relations.get(name)
            complement = result.add_relation(
                name + COMPLEMENT_SUFFIX,
                tuple(f"a{i}" for i in range(arity)),
            )
            for values in itertools.product(domain, repeat=arity):
                p = source.probability(values) if source else 0.0
                if 1.0 - p > 0.0:
                    complement.add(values, 1.0 - p)
        return result

    def map_probabilities(self, fn) -> "TupleIndependentDatabase":
        """A copy with every tuple probability transformed by *fn*."""
        return TupleIndependentDatabase(
            {name: rel.map_probabilities(fn) for name, rel in self.relations.items()},
            self.explicit_domain,
        )

    def is_symmetric(self, domain_size: Optional[int] = None) -> bool:
        """Sec. 8: every *possible* tuple of a relation has equal probability.

        A stored database is symmetric only when each relation contains the
        full cross product of the domain with one shared probability.
        """
        domain = self.domain()
        n = len(domain) if domain_size is None else domain_size
        for relation in self.relations.values():
            expected = n ** relation.arity
            if len(relation) != expected:
                return False
            probs = set(relation.rows.values())
            if len(probs) > 1:
                return False
        return True

    def world_count(self) -> int:
        """Number of worlds with non-trivial probability (2^#uncertain)."""
        uncertain = sum(
            1 for _, _, p in self.facts() if 0.0 < p < 1.0
        )
        return 2 ** uncertain

    def log_world_count(self) -> float:
        return math.log2(self.world_count())

    def __str__(self) -> str:
        return "\n".join(str(rel) for _, rel in sorted(self.relations.items()))


def _predicate_arities(sentence: Formula) -> dict[str, int]:
    arities: dict[str, int] = {}
    for atom in sentence.atoms():
        existing = arities.setdefault(atom.predicate, atom.arity)
        if existing != atom.arity:
            raise ValueError(f"predicate {atom.predicate} used with two arities")
    return arities
