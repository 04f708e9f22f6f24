"""The lifted inference engine (Sec. 5 of the paper).

Computes query probabilities from the first-order structure of the query,
never its grounded lineage. :func:`repro.lifted.derive.derive` chooses the
rules without data, once per query shape; :class:`LiftedEngine` walks that
derivation over one database, binding each separator's slot to every domain
value (polynomial in the database) and memoizing node values per binding.
Unate ∀*/∃* sentences are reduced to UCQs via the dual-query construction of
Sec. 2 (negation + complement relations). When no rule applies it raises
:class:`NonLiftableError`; for queries in the paper's language that
certifies #P-hardness (Theorems 4.1 and 5.1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

from ..core.tid import TupleIndependentDatabase
from ..logic.cq import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..logic.formulas import And, Atom, Formula, Not, Or
from ..logic.transform import is_unate, prenex, to_nnf, unate_to_monotone
from ..wmc.dpll import independent_or
from .derive import Node, derive
from .errors import UnsupportedQueryError


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
    #: Node values per predicate naming, keyed by (node, slot values).
    _memo: dict = field(default_factory=dict, repr=False)

    def probability(self, query: UnionOfConjunctiveQueries | ConjunctiveQuery) -> float:
        """P(query); raises :class:`NonLiftableError` when rules fail."""
        derivation = derive(query, inclusion_exclusion=self.use_inclusion_exclusion)
        domain = self.db.domain()
        memo = self._memo.setdefault(derivation.predicates, {})

        def value(node: Node, binding: dict[int, object]) -> float:
            key = (node, tuple(binding[s] for s in node.slots))
            cached = memo.get(key)
            if cached is not None:
                return cached
            if self.record_trace:
                shown = str(derivation.render(node.query, binding))
                detail = node.describe(derivation.variables)
                self.trace.append(RuleApplication(node.rule, shown, detail))
                if node.cancelled:
                    cancelled = f"{node.cancelled} terms cancelled"
                    self.trace.append(RuleApplication("cancellation", shown, cancelled))
            if node.rule == "ground":
                fact, names = self.db.probability_of_fact, derivation.predicates
                facts = ((names[p], tuple(binding[s] for s in slots)) for p, slots in node.facts)
                result = math.prod(fact(name, values) for name, values in facts)
            elif node.rule == "independent-and":
                result = math.prod(value(child, binding) for child in node.children)
            elif node.rule == "independent-or":
                result = independent_or([value(c, binding) for c in node.children])
            elif node.rule == "separator":
                # per domain value: the child of the slot it equals, else the fresh one
                equal = dict(zip((binding[s] for s in node.slots), node.children))
                fresh = node.children[-1]
                result = independent_or([
                    value(equal[a], binding)
                    if a in equal
                    else value(fresh, {**binding, node.bound: a})
                    for a in domain
                ])
            else:
                terms = zip(node.coefficients, node.children)
                result = math.fsum(c * value(child, binding) for c, child in terms)
            memo[key] = result
            return result

        return value(derivation.root, dict(enumerate(derivation.constants)))


# -- sentence-level entry point ---------------------------------------------------


def sentence_to_ucq(sentence: Formula) -> UnionOfConjunctiveQueries:
    """Convert a monotone ∃*-sentence into a UCQ by distributing the matrix."""
    form = prenex(sentence)
    if any(kind != "exists" for kind in form.prefix_kinds()):
        raise UnsupportedQueryError("expected a pure ∃* prefix")
    disjuncts = _matrix_dnf(form.matrix)
    if not disjuncts:
        raise UnsupportedQueryError("matrix simplifies to false")
    if not all(disjuncts):
        raise UnsupportedQueryError("matrix simplifies to a trivial query")
    return UnionOfConjunctiveQueries(tuple(ConjunctiveQuery(atoms) for atoms in disjuncts))


def _matrix_dnf(matrix: Formula) -> list[tuple[Atom, ...]]:
    """DNF of a positive quantifier-free matrix, as atom tuples."""
    if isinstance(matrix, Atom):
        return [(matrix,)]
    if isinstance(matrix, Or):
        return [atoms for part in matrix.parts for atoms in _matrix_dnf(part)]
    if isinstance(matrix, And):
        products = itertools.product(*(_matrix_dnf(part) for part in matrix.parts))
        return [sum(atoms, ()) for atoms in products]
    raise UnsupportedQueryError(
        f"matrix must be a positive combination of atoms, found {matrix}"
    )


def unate_ucq(query: Formula) -> tuple[UnionOfConjunctiveQueries, Formula, bool]:
    """The data-free half of lifting a unate sentence (Theorem 4.1's language).

    Returns the UCQ to lift, the ∃*-sentence whose complement relations it
    reads, and whether P(query) = 1 − P(UCQ). ∃*-sentences are made monotone
    over complement relations (:func:`repro.logic.transform.unate_to_monotone`)
    and converted to UCQs; ∀*-sentences go through the dual construction
    ``P(Q) = 1 − P(¬Q)`` where ¬Q is again a unate ∃*-sentence.
    """
    sentence = to_nnf(query)
    if not sentence.is_sentence():
        raise UnsupportedQueryError("query must be a sentence")
    if not is_unate(sentence):
        raise UnsupportedQueryError("query must be unate (Sec. 4)")
    kinds = set(prenex(sentence).prefix_kinds())
    if kinds <= {"exists"}:
        return sentence_to_ucq(unate_to_monotone(sentence)), sentence, False
    if kinds <= {"forall"}:
        ucq, existential, _ = unate_ucq(Not(sentence))
        return ucq, existential, True
    raise UnsupportedQueryError(
        "mixed quantifier prefixes are outside the engine's language"
    )


def lifted_probability(
    query: Formula | UnionOfConjunctiveQueries | ConjunctiveQuery,
    db: TupleIndependentDatabase,
    engine: Optional[LiftedEngine] = None,
) -> float:
    """Lifted PQE for UCQs and unate ∀*/∃* sentences (see :func:`unate_ucq`)."""
    if isinstance(query, (UnionOfConjunctiveQueries, ConjunctiveQuery)):
        return (engine or LiftedEngine(db)).probability(query)
    ucq, existential, dual = unate_ucq(query)
    complemented = db.with_complements(existential)
    complemented.explicit_domain = frozenset(db.domain())
    probability = (engine or LiftedEngine(complemented)).probability(ucq)
    return 1.0 - probability if dual else probability
