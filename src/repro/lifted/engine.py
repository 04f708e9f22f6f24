"""The lifted inference engine (Sec. 5 of the paper).

Computes query probabilities by manipulating only the first-order structure
of the query — never the grounded lineage — using the paper's rules:

* rule (7) and its dual: independent-∧ / independent-∨ over subqueries with
  disjoint relation symbols;
* rule (8) and its dual: separator variables, including *merged* separators
  across the disjuncts of a union (∃x φ ∨ ∃y ψ ≡ ∃x (φ ∨ ψ[x/y]));
* rule (10), the inclusion/exclusion formula, with the *cancellation* step:
  coefficients of logically equivalent terms are merged before recursing, so
  a #P-hard term whose net coefficient is zero (Sec. 5's "absolutely
  necessary" cancellation) is never evaluated. By Rota's crosscut theorem
  this computes exactly the Möbius coefficients of the query's lattice.

The engine works on UCQs; unate ∀*/∃* sentences are reduced to UCQs via the
dual-query construction of Sec. 2 (negation + complement relations). When no
rule applies it raises :class:`NonLiftableError`; for queries in the paper's
language that certifies #P-hardness (Theorems 4.1 and 5.1).

Every evaluation runs in time polynomial in the database (the rules only
recurse into syntactically smaller queries or over domain values) and the
engine memoizes on canonical query keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.tid import TupleIndependentDatabase
from ..logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..logic.formulas import (
    And,
    Atom,
    Bottom,
    Formula,
    Not,
    Or,
    Top,
)
from ..logic.terms import Const, Var
from ..logic.transform import is_unate, prenex, to_nnf, unate_to_monotone
from .errors import NonLiftableError, UnsupportedQueryError


@dataclass(frozen=True)
class RuleApplication:
    """One step in the lifted derivation (for explanation / E5)."""

    rule: str
    query: str
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{self.rule}] {self.query}{suffix}"


@dataclass
class LiftedEngine:
    """Evaluates UCQ probabilities over one TID with rule tracing."""

    db: TupleIndependentDatabase
    record_trace: bool = False
    # Ablation switch (E5): with inclusion/exclusion disabled only the
    # *basic* rules of Sec. 5 remain, and queries like Q_J become
    # non-liftable even though they are in PTIME.
    use_inclusion_exclusion: bool = True
    trace: list[RuleApplication] = field(default_factory=list)
    _memo: dict = field(default_factory=dict, repr=False)
    _in_progress: set = field(default_factory=set, repr=False)

    # -- public API -----------------------------------------------------------

    def probability(self, query: UnionOfConjunctiveQueries | ConjunctiveQuery) -> float:
        """P(query); raises :class:`NonLiftableError` when rules fail."""
        if isinstance(query, ConjunctiveQuery):
            query = UnionOfConjunctiveQueries((query,))
        return self._ucq(query)

    def _record(self, rule: str, query: object, detail: str = "") -> None:
        if self.record_trace:
            self.trace.append(RuleApplication(rule, str(query), detail))

    # -- union level ------------------------------------------------------------

    def _ucq(self, query: UnionOfConjunctiveQueries) -> float:
        query = query.minimize()
        key = ("ucq", query.canonical_key())
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        disjuncts = query.disjuncts
        if len(disjuncts) == 1:
            result = self._cq(disjuncts[0])
            self._memo[key] = result
            return result

        # Rule (7) dual: independent-∨ over symbol-disjoint groups.
        groups = _symbol_components(disjuncts)
        if len(groups) > 1:
            self._record("independent-or", query, f"{len(groups)} groups")
            complement = 1.0
            for group in groups:
                complement *= 1.0 - self._ucq(UnionOfConjunctiveQueries(group))
            result = 1.0 - complement
            self._memo[key] = result
            return result

        # Rule (8): merged separator across the disjuncts.
        separator = _merged_separator(disjuncts)
        if separator is not None:
            self._record(
                "separator",
                query,
                "variables " + ", ".join(v.name for v in separator),
            )
            complement = 1.0
            for value in self.db.domain():
                constant = Const(value)
                grounded = UnionOfConjunctiveQueries(
                    tuple(
                        q.substitute({var: constant})
                        for q, var in zip(disjuncts, separator)
                    )
                )
                complement *= 1.0 - self._ucq(grounded)
            result = 1.0 - complement
            self._memo[key] = result
            return result

        # Rule (10): inclusion/exclusion with cancellation.
        if not self.use_inclusion_exclusion:
            raise NonLiftableError(
                f"inclusion/exclusion disabled; basic rules stuck on: {query}",
                subquery=query,
            )
        if key in self._in_progress:
            raise NonLiftableError(
                f"cyclic inclusion/exclusion on: {query}", subquery=query
            )
        self._in_progress.add(key)
        try:
            result = self._inclusion_exclusion(query)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = result
        return result

    def _inclusion_exclusion(self, query: UnionOfConjunctiveQueries) -> float:
        disjuncts = query.disjuncts
        self._record("inclusion-exclusion", query, f"{len(disjuncts)} disjuncts")
        terms: dict[tuple, tuple[int, ConjunctiveQuery]] = {}
        for size in range(1, len(disjuncts) + 1):
            sign = 1 if size % 2 == 1 else -1
            for subset in itertools.combinations(disjuncts, size):
                conjunction = subset[0]
                for extra in subset[1:]:
                    conjunction = conjunction.conjoin(extra)
                conjunction = conjunction.core()
                term_key = conjunction.canonical_key()
                coefficient, representative = terms.get(term_key, (0, conjunction))
                terms[term_key] = (coefficient + sign, representative)

        # Merge terms the canonical key failed to identify (large queries).
        merged: list[tuple[int, ConjunctiveQuery]] = []
        for coefficient, representative in terms.values():
            for i, (other_coeff, other) in enumerate(merged):
                if representative.equivalent(other):
                    merged[i] = (other_coeff + coefficient, other)
                    break
            else:
                merged.append((coefficient, representative))

        cancelled = sum(1 for coeff, _ in merged if coeff == 0)
        if cancelled:
            self._record("cancellation", query, f"{cancelled} terms cancelled")
        result = 0.0
        for coefficient, representative in merged:
            if coefficient == 0:
                continue
            result += coefficient * self._cq(representative)
        return result

    # -- conjunctive query level -------------------------------------------------

    def _cq(self, query: ConjunctiveQuery) -> float:
        query = query.core()
        key = ("cq", query.canonical_key())
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        # Base case: fully ground query — distinct facts are independent.
        if all(atom.is_ground() for atom in query.atoms):
            self._record("ground", query)
            result = 1.0
            for atom in query.atoms:
                values = tuple(t.value for t in atom.args)  # type: ignore[union-attr]
                result *= self.db.probability_of_fact(atom.predicate, values)
            self._memo[key] = result
            return result

        # Rule (7): independent-∧ over symbol-and-variable-disjoint components.
        components = query.connected_components(by_symbols=True)
        if len(components) > 1:
            self._record("independent-and", query, f"{len(components)} components")
            result = 1.0
            for component in components:
                result *= self._cq(component)
            self._memo[key] = result
            return result

        # Rule (8): separator variable.
        separator = query.separator_variable()
        if separator is not None:
            self._record("separator", query, f"variable {separator.name}")
            complement = 1.0
            for value in self.db.domain():
                grounded = query.substitute({separator: Const(value)})
                complement *= 1.0 - self._cq(grounded)
            result = 1.0 - complement
            self._memo[key] = result
            return result

        # Rule (10) dual: inclusion/exclusion on a conjunction whose
        # variable-disjoint components share relation symbols:
        # P(⋀cᵢ) = Σ_{∅≠S} (−1)^{|S|+1} P(⋁_{i∈S} cᵢ). The disjunction
        # terms are UCQs where existential quantifiers merge, which is what
        # unlocks queries like h₀ ∨ (h₁ ∧ h₂) (the Q_W family).
        var_components = query.connected_components(by_symbols=False)
        if len(var_components) > 1 and self.use_inclusion_exclusion:
            if key in self._in_progress:
                raise NonLiftableError(
                    f"cyclic inclusion/exclusion on: {query}", subquery=query
                )
            self._in_progress.add(key)
            try:
                result = self._conjunction_inclusion_exclusion(
                    query, var_components
                )
            finally:
                self._in_progress.discard(key)
            self._memo[key] = result
            return result

        raise NonLiftableError(
            f"no lifted rule applies to: {query}", subquery=query
        )

    def _conjunction_inclusion_exclusion(
        self, query: ConjunctiveQuery, components: list[ConjunctiveQuery]
    ) -> float:
        self._record(
            "inclusion-exclusion-conj", query, f"{len(components)} components"
        )
        terms: dict[frozenset, tuple[int, UnionOfConjunctiveQueries]] = {}
        for size in range(1, len(components) + 1):
            sign = 1 if size % 2 == 1 else -1
            for subset in itertools.combinations(components, size):
                union = UnionOfConjunctiveQueries(subset).minimize()
                term_key = union.canonical_key()
                coefficient, representative = terms.get(term_key, (0, union))
                terms[term_key] = (coefficient + sign, representative)
        merged: list[tuple[int, UnionOfConjunctiveQueries]] = []
        for coefficient, representative in terms.values():
            for i, (other_coeff, other) in enumerate(merged):
                if representative.equivalent(other):
                    merged[i] = (other_coeff + coefficient, other)
                    break
            else:
                merged.append((coefficient, representative))
        cancelled = sum(1 for coeff, _ in merged if coeff == 0)
        if cancelled:
            self._record("cancellation", query, f"{cancelled} terms cancelled")
        result = 0.0
        for coefficient, representative in merged:
            if coefficient == 0:
                continue
            result += coefficient * self._ucq(representative)
        return result


def _symbol_components(
    disjuncts: Sequence[ConjunctiveQuery],
) -> list[tuple[ConjunctiveQuery, ...]]:
    """Partition disjuncts into groups with pairwise-disjoint symbols."""
    n = len(disjuncts)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(n), 2):
        if disjuncts[i].predicates & disjuncts[j].predicates:
            parent[find(i)] = find(j)
    groups: dict[int, list[ConjunctiveQuery]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(disjuncts[i])
    return [tuple(g) for g in groups.values()]


def _separator_candidates(
    query: ConjunctiveQuery,
) -> list[tuple[Var, dict[str, frozenset[int]]]]:
    """Separator variables of one CQ with their per-symbol position sets."""
    candidates = []
    for var in sorted(query.root_variables(), key=lambda v: v.name):
        positions: dict[str, frozenset[int]] = {}
        ok = True
        for atom in query.atoms:
            occupied = frozenset(i for i, t in enumerate(atom.args) if t == var)
            previous = positions.get(atom.predicate)
            combined = occupied if previous is None else previous & occupied
            if not combined:
                ok = False
                break
            positions[atom.predicate] = combined
        if ok:
            candidates.append((var, positions))
    return candidates


def _merged_separator(
    disjuncts: Sequence[ConjunctiveQuery],
) -> Optional[tuple[Var, ...]]:
    """One separator per disjunct with consistent positions per symbol.

    When found, ``⋁ᵢ ∃xᵢ φᵢ ≡ ∃x ⋁ᵢ φᵢ[x/xᵢ]`` and x is a separator of the
    merged formula, so the per-value events are independent.
    """
    per_disjunct = [_separator_candidates(q) for q in disjuncts]
    if any(not candidates for candidates in per_disjunct):
        return None

    chosen: list[Var] = []

    def search(index: int, positions: dict[str, frozenset[int]]) -> bool:
        if index == len(per_disjunct):
            return True
        for var, candidate_positions in per_disjunct[index]:
            combined = dict(positions)
            ok = True
            for symbol, pos in candidate_positions.items():
                existing = combined.get(symbol)
                merged = pos if existing is None else existing & pos
                if not merged:
                    ok = False
                    break
                combined[symbol] = merged
            if ok:
                chosen.append(var)
                if search(index + 1, combined):
                    return True
                chosen.pop()
        return False

    if search(0, {}):
        return tuple(chosen)
    return None


# -- sentence-level entry point ---------------------------------------------------


def sentence_to_ucq(sentence: Formula) -> UnionOfConjunctiveQueries:
    """Convert a monotone ∃*-sentence into a UCQ by distributing the matrix."""
    form = prenex(sentence)
    if any(kind != "exists" for kind in form.prefix_kinds()):
        raise UnsupportedQueryError("expected a pure ∃* prefix")
    disjunct_atom_sets = _matrix_dnf(form.matrix)
    disjuncts = []
    for atoms in disjunct_atom_sets:
        if not atoms:
            raise UnsupportedQueryError("matrix simplifies to a trivial query")
        disjuncts.append(ConjunctiveQuery(tuple(atoms)))
    if not disjuncts:
        raise UnsupportedQueryError("matrix simplifies to false")
    return UnionOfConjunctiveQueries(tuple(disjuncts))


def _matrix_dnf(matrix: Formula) -> list[tuple[Atom, ...]]:
    """DNF of a positive quantifier-free matrix, as atom tuples."""
    if isinstance(matrix, Atom):
        return [(matrix,)]
    if isinstance(matrix, Or):
        out: list[tuple[Atom, ...]] = []
        for part in matrix.parts:
            out.extend(_matrix_dnf(part))
        return out
    if isinstance(matrix, And):
        acc: list[tuple[Atom, ...]] = [()]
        for part in matrix.parts:
            acc = [
                left + right for left in acc for right in _matrix_dnf(part)
            ]
        return acc
    if isinstance(matrix, (Top, Bottom, Not)):
        raise UnsupportedQueryError(
            f"matrix must be a positive combination of atoms, found {matrix}"
        )
    raise UnsupportedQueryError(f"unsupported matrix node {matrix!r}")


def lifted_probability(
    query: Formula | UnionOfConjunctiveQueries | ConjunctiveQuery,
    db: TupleIndependentDatabase,
    engine: Optional[LiftedEngine] = None,
) -> float:
    """Lifted PQE for UCQs and unate ∀*/∃* sentences (Theorem 4.1's language).

    ∃*-sentences are made monotone over complement relations
    (:func:`repro.logic.transform.unate_to_monotone`) and converted to UCQs;
    ∀*-sentences are handled through the dual construction
    ``P(Q) = 1 − P(¬Q)`` where ¬Q is again a unate ∃*-sentence.
    """
    if isinstance(query, (UnionOfConjunctiveQueries, ConjunctiveQuery)):
        active = engine if engine is not None else LiftedEngine(db)
        return active.probability(query)

    sentence = to_nnf(query)
    if not sentence.is_sentence():
        raise UnsupportedQueryError("query must be a sentence")
    if not is_unate(sentence):
        raise UnsupportedQueryError("query must be unate (Sec. 4)")
    form = prenex(sentence)
    kinds = set(form.prefix_kinds())
    if kinds <= {"exists"}:
        monotone = unate_to_monotone(sentence)
        complemented = db.with_complements(sentence)
        complemented.explicit_domain = frozenset(db.domain())
        ucq = sentence_to_ucq(monotone)
        active = engine if engine is not None else LiftedEngine(complemented)
        return active.probability(ucq)
    if kinds <= {"forall"}:
        negated = to_nnf(Not(sentence))
        return 1.0 - lifted_probability(negated, db)
    raise UnsupportedQueryError(
        "mixed quantifier prefixes are outside the engine's language"
    )
