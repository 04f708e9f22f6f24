"""Compile a constraint set Γ once; serve ``P(Q | Γ)``, top-k and what-if.

Conditioning (Koch–Olteanu) turns a tuple-independent database into the
posterior distribution ``P(W | W ⊨ Γ)``. Everything reduces to weighted
model counting over one shared variable pool:

* ``posterior(Q)`` — ``P(Q ∧ Γ) / P(Γ)``: the query's lineage is grounded
  over the *scenario's* pool (so variable indices line up with Γ), the
  conjunction is counted by the DPLL counter, and the count is
  renormalized by ``P(Γ)``. Ground single-fact queries skip the
  conjunction: one memoized differentiation pass over the compiled
  circuit yields every fact's posterior, making each such request O(1).
* ``fact_posteriors()`` — per-fact posteriors via circuit differentiation
  (:mod:`repro.kc.differentiate`) on the compiled constraint circuit.
* ``top_k_worlds(k)`` — the k most probable Γ-satisfying worlds via the
  branch-and-bound extension of :mod:`repro.kc.mpe`.
* ``whatif(force)`` — incremental re-conditioning: forcing a fact in/out
  is a kernel cofactor on its literal (:func:`repro.booleans.ops.condition`),
  never a recompile; the derived scenario shares the parent's pool and
  count cache.

**Compile once, count forever.** The scenario owns a persistent
``{node id → probability}`` cache threaded through every DPLL run
(:class:`~repro.wmc.dpll.DPLLCounter` ``external_cache``). Counting Γ at
install time seeds the cache with every Shannon subformula of Γ; a later
``P(Q ∧ Γ)`` only explores the thin layer where Q's lineage meets Γ — in
the common case where they share no variables, the Γ factor is an O(1)
lookup. This is sound because node ids identify formulas and the pool's
probabilities are fixed for the scenario's lifetime.

Constraint grammar (one constraint per spec string)::

    +R(1,2)        assert: the fact R(1,2) is in  (condition on X = 1)
    -R(1,2)        deny:   the fact R(1,2) is out (condition on X = 0)
    R(x), S(x,y)   require: the Boolean query must hold
    ! R(x), T(x)   forbid:  the Boolean query must be false

Queries use the engine's full syntax (FO sentence, CQ or UCQ shorthand);
constants are integers or quoted strings, as in the parser.

Thread safety: a scenario family (base plus its what-if derivations)
shares one :class:`~repro.sanitize.RankedLock` of rank
:data:`~repro.sanitize.RANK_SCENARIO`, held across pool growth and
counting — evaluations against one scenario serialize, distinct scenarios
proceed independently. The lock wraps only kernel and counter work, never
another ranked lock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from ..booleans.expr import B_FALSE, B_TRUE, BAnd, BExpr, BVar, bnot
from ..booleans.forms import to_dnf
from ..booleans.ops import condition as restrict
from ..core.pdb import ProbabilisticDatabase, Query
from ..core.tid import TupleIndependentDatabase
from ..engine.cache import digest
from ..kc.circuits import Circuit
from ..kc.differentiate import VariableReport, differentiate
from ..kc.mpe import top_k_models
from ..lineage.build import VariablePool, lineage_of
from ..logic.cq import ConjunctiveQuery
from ..logic.formulas import Atom
from ..logic.semantics import Fact
from ..logic.terms import Const
from ..sanitize import RANK_SCENARIO, RankedLock, check_probability
from ..wmc.dpll import DPLLCounter, DPLLResult, compile_decision_dnnf
from ..wmc.karp_luby import karp_luby

__all__ = [
    "ConditionedAnswer",
    "ConditionedScenario",
    "Constraint",
    "ConstraintSet",
    "InconsistentConstraints",
    "WorldCandidate",
    "condition_database",
]

#: Constraint kinds, in the canonical order specs sort into.
_KINDS = ("assert", "deny", "require", "forbid")

#: Spec prefixes per kind (the wire/CLI syntax).
_PREFIX = {"assert": "+", "deny": "-", "require": "", "forbid": "!"}


class InconsistentConstraints(ValueError):
    """Γ has probability zero — conditioning on it is undefined."""


@dataclass(frozen=True)
class Constraint:
    """One parsed constraint: a kind plus its canonicalized body text."""

    kind: str
    text: str

    @classmethod
    def parse(cls, spec: Union[str, "Constraint"]) -> "Constraint":
        """Parse one spec string (see the module docstring's grammar)."""
        if isinstance(spec, Constraint):
            return spec
        if not isinstance(spec, str):
            raise ValueError(
                f"constraint spec must be a string, not {type(spec).__name__}"
            )
        text = spec.strip()
        if not text:
            raise ValueError("constraint spec must be non-empty")
        if text[0] == "+":
            kind, body = "assert", text[1:]
        elif text[0] == "-":
            kind, body = "deny", text[1:]
        elif text[0] == "!":
            kind, body = "forbid", text[1:]
        else:
            kind, body = "require", text
        body = " ".join(body.split())
        if not body:
            raise ValueError(f"constraint spec {spec!r} has an empty body")
        return cls(kind, body)

    def spec(self) -> str:
        """The canonical wire form (re-parses to an equal constraint)."""
        return _PREFIX[self.kind] + self.text

    def __str__(self) -> str:
        return self.spec()


@dataclass(frozen=True)
class ConstraintSet:
    """An immutable, canonicalized set of constraints (Γ).

    Parsing sorts and deduplicates, so two spellings of the same Γ share
    a :meth:`fingerprint` — the content address under which compiled
    scenarios are cached and coalesced.
    """

    constraints: Tuple[Constraint, ...]

    @classmethod
    def parse(
        cls, specs: Union[str, Iterable[Union[str, Constraint]]]
    ) -> "ConstraintSet":
        """Parse a ``;``-separated string or an iterable of specs."""
        if isinstance(specs, str):
            items: Iterable[Union[str, Constraint]] = [
                part for part in specs.split(";") if part.strip()
            ]
        else:
            items = specs
        parsed = sorted(
            {Constraint.parse(spec) for spec in items},
            key=lambda c: (_KINDS.index(c.kind), c.text),
        )
        if not parsed:
            raise ValueError("a constraint set needs at least one constraint")
        return cls(tuple(parsed))

    def fingerprint(self) -> str:
        """A content hash of the canonical spec list (Γ_fp)."""
        return digest(["gamma"] + [c.spec() for c in self.constraints])

    def specs(self) -> List[str]:
        """The canonical wire form, one spec string per constraint."""
        return [c.spec() for c in self.constraints]

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __str__(self) -> str:
        return "; ".join(self.specs())


@dataclass(frozen=True)
class ConditionedAnswer:
    """One conditioned evaluation: ``P(Q | Γ)`` with its provenance."""

    probability: float
    joint: float
    gamma_probability: float
    exact: bool
    method: str
    guarantee: str
    detail: str = ""
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    samples: Optional[int] = None


@dataclass(frozen=True)
class WorldCandidate:
    """One of the k most probable Γ-worlds.

    ``world`` assigns every constraint-relevant fact (facts Γ or a what-if
    force mentions; other facts are marginalized out). ``probability`` is
    the world's prior mass over those facts, ``posterior`` its probability
    given Γ (``probability / P(Γ)``; forced facts contribute no factor —
    they are part of the evidence).
    """

    world: Dict[Fact, bool]
    probability: float
    posterior: float


def _parse_fact(pdb: ProbabilisticDatabase, text: str) -> Fact:
    """Parse a ground-atom spec like ``R(1, "a")`` into a fact."""
    parsed = pdb.parse_query(text)
    if isinstance(parsed, Atom):
        atom = parsed
    elif isinstance(parsed, ConjunctiveQuery) and len(parsed.atoms) == 1:
        atom = parsed.atoms[0]
    else:
        raise ValueError(f"fact spec {text!r} must be a single atom")
    values = []
    for term in atom.args:
        if not isinstance(term, Const):
            raise ValueError(
                f"fact spec {text!r} must be ground: {term} is a variable "
                "(constants are integers or quoted strings)"
            )
        values.append(term.value)
    return (atom.predicate, tuple(values))


class ConditionedScenario:
    """A compiled constraint set and everything served against it.

    Build with :meth:`compile` (or :func:`condition_database`); derive
    what-if variants with :meth:`whatif`. A base scenario and its
    derivations form one family sharing the variable pool, the persistent
    count cache and the family lock.
    """

    def __init__(
        self,
        pdb: ProbabilisticDatabase,
        constraints: ConstraintSet,
        *,
        pool: VariablePool,
        gamma_expr: BExpr,
        gamma_probability: float,
        gamma_vars: Tuple[int, ...],
        forced: Dict[int, bool],
        counts: Dict[int, Tuple[float, int]],
        lock: RankedLock,
        db_fingerprint: str,
    ) -> None:
        self.pdb = pdb
        self.constraints = constraints
        self.pool = pool
        self.gamma_expr = gamma_expr
        self.gamma_probability = gamma_probability
        self.db_fingerprint = db_fingerprint
        self._gamma_vars = gamma_vars
        self._forced = dict(forced)
        self._counts = counts
        self._lock = lock
        self._compiled_gamma: Optional[DPLLResult] = None
        self._fact_reports: Optional[Dict[int, VariableReport]] = None
        # The family's base scenario: what-if derivations answer single-fact
        # posteriors by re-weighting ITS compiled circuit (forced variables
        # pinned to probability 1/0) instead of compiling their own Γ'.
        self._root: "ConditionedScenario" = self

    # -- construction ----------------------------------------------------------

    @classmethod
    def compile(
        cls,
        db: Union[ProbabilisticDatabase, TupleIndependentDatabase],
        constraints: Union[ConstraintSet, str, Iterable[Union[str, Constraint]]],
    ) -> "ConditionedScenario":
        """Ground and count Γ once; raises on an impossible constraint set.

        Counting ``P(Γ)`` seeds the scenario's persistent count cache with
        every Shannon subformula of Γ — the work later posteriors reuse.
        """
        pdb = (
            db
            if isinstance(db, ProbabilisticDatabase)
            else ProbabilisticDatabase(tid=db)
        )
        gamma = (
            constraints
            if isinstance(constraints, ConstraintSet)
            else ConstraintSet.parse(constraints)
        )
        pool = VariablePool()
        parts: List[BExpr] = []
        for constraint in gamma:
            parts.append(cls._ground_constraint(pdb, pool, constraint))
        gamma_expr = BAnd.of(parts)
        counts: Dict[int, Tuple[float, int]] = {}
        scenario = cls(
            pdb,
            gamma,
            pool=pool,
            gamma_expr=gamma_expr,
            gamma_probability=1.0,
            gamma_vars=tuple(sorted(gamma_expr.variables())),
            forced={},
            counts=counts,
            lock=RankedLock(RANK_SCENARIO, "condition.scenario"),
            db_fingerprint=pdb.tid.fingerprint(),
        )
        with scenario._lock:
            p_gamma = scenario._count_locked(gamma_expr)
        if p_gamma <= 0.0:
            raise InconsistentConstraints(
                f"constraints have probability zero: {gamma}"
            )
        scenario.gamma_probability = p_gamma
        return scenario

    @staticmethod
    def _ground_constraint(
        pdb: ProbabilisticDatabase, pool: VariablePool, constraint: Constraint
    ) -> BExpr:
        tid = pdb.tid
        if constraint.kind in ("assert", "deny"):
            fact = _parse_fact(pdb, constraint.text)
            probability = tid.probability_of_fact(fact[0], fact[1])
            if probability <= 0.0:
                # An absent fact: asserting it is impossible, denying it
                # is vacuous — neither pollutes the pool.
                return B_FALSE if constraint.kind == "assert" else B_TRUE
            literal = pool.literal(fact, probability)
            return literal if constraint.kind == "assert" else bnot(literal)
        parsed = pdb.parse_query(constraint.text)
        expr = lineage_of(parsed, tid, pool).expr
        return expr if constraint.kind == "require" else bnot(expr)

    # -- counting --------------------------------------------------------------

    def _probability_map(self) -> Dict[int, float]:
        return dict(enumerate(self.pool.probabilities))

    def _count_locked(self, expr: BExpr) -> float:
        counter = DPLLCounter(external_cache=self._counts)
        return counter.run(expr, self._probability_map()).probability

    def _joint_locked(self, q_expr: BExpr) -> float:
        """``P(Q ∧ Γ)`` for a grounded query expression.

        When Q's lineage is one positive variable, the joint is
        ``P(f | Γ) · P(Γ)`` with no DPLL run per query: base scenarios
        read the fact's posterior from the memoized differentiation pass;
        what-if derivations re-weight the base's compiled circuit with the
        forced variables pinned to 1/0 (one linear evaluation). Everything
        else counts the conjunction.
        """
        if isinstance(q_expr, BVar):
            var = q_expr.index
            if not self._forced:
                try:
                    report = self._fact_reports_locked().get(var)
                except ZeroDivisionError:
                    # Float disagreement between the DPLL count that
                    # admitted this scenario and the circuit evaluation:
                    # fall through to the conjunction count, don't crash.
                    pass
                else:
                    if report is None:
                        # The fact was pooled after the differentiation
                        # pass ran, so it cannot occur in Γ: it is
                        # independent of Γ and its posterior is its prior.
                        return (
                            self.pool.probabilities[var]
                            * self.gamma_probability
                        )
                    return report.posterior * self.gamma_probability
            elif self._root._compiled_gamma is not None:
                circuit = self._root._compiled_locked()
                probabilities = self._pinned_probabilities_locked()
                prior = probabilities[var]
                probabilities[var] = 1.0
                # P(f ∧ Γ | F) = p_f · P(Γ | F, f=1)
                return prior * circuit.wmc(probabilities)
        return self._count_locked(BAnd.of((q_expr, self.gamma_expr)))

    def _pinned_probabilities_locked(self) -> Dict[int, float]:
        """The pool's priors with each forced variable pinned to 1/0.

        Evaluating a d-DNNF under this re-weighted measure computes
        conditional masses ``P(· | forced)`` exactly — the circuit never
        needs recompiling for what-if evidence.
        """
        probabilities = self._probability_map()
        for var, value in self._forced.items():
            probabilities[var] = 1.0 if value else 0.0
        return probabilities

    def _ground_locked(self, query: Query) -> BExpr:
        parsed = self.pdb.parse_query(query)
        expr = lineage_of(parsed, self.pdb.tid, self.pool).expr
        if self._forced:
            expr = restrict(expr, self._forced)
        return expr

    # -- queries ---------------------------------------------------------------

    @property
    def variable_count(self) -> int:
        """Pool size: Γ's facts plus every fact queried so far."""
        return len(self.pool)

    @property
    def forced(self) -> Dict[Fact, bool]:
        """The what-if evidence: facts forced in/out by :meth:`whatif`."""
        return {
            self.pool.fact_of_var[var]: value
            for var, value in self._forced.items()
        }

    def world_facts(self) -> List[Fact]:
        """The constraint-relevant facts :meth:`top_k_worlds` assigns."""
        return [self.pool.fact_of_var[var] for var in self._gamma_vars]

    def posterior(self, query: Query) -> ConditionedAnswer:
        """``P(Q | Γ)`` exactly, via conjunction counting + renormalization.

        Ground single-fact queries on a base scenario skip the conjunction
        entirely: one differentiation pass over the compiled Γ circuit
        (memoized for the scenario's lifetime) yields *every* fact's
        posterior at once, so each lookup is O(1) after the first.
        """
        with self._lock:
            q_expr = self._ground_locked(query)
            joint = self._joint_locked(q_expr)
        p_gamma = self.gamma_probability
        probability = min(joint / p_gamma, 1.0)
        check_probability(probability, context="conditioned posterior")
        return ConditionedAnswer(
            probability=probability,
            joint=joint,
            gamma_probability=p_gamma,
            exact=True,
            method="conditioned-dpll",
            guarantee="exact conditional probability (no approximation)",
            detail=(
                f"P(Q∧Γ)={joint:.6g} / P(Γ)={p_gamma:.6g} over "
                f"{len(self.pool)} pooled facts"
            ),
        )

    def sample_posterior(
        self,
        query: Query,
        *,
        epsilon: float,
        delta: float,
        rng: Optional[random.Random] = None,
    ) -> ConditionedAnswer:
        """Degraded ``P(Q | Γ)``: Γ-rejection Karp–Luby over Q's DNF.

        ``P(Q ∧ Γ)`` is estimated by the Karp–Luby union-space sampler
        with Γ-violating samples rejected, then renormalized by the
        *exact* ``P(Γ)`` — so the conditional inherits the joint's
        relative-error guarantee. Raises
        :class:`~repro.booleans.forms.FormSizeExceeded` when Q's DNF is
        too large; callers fall back to their own floor.
        """
        with self._lock:
            q_expr = self._ground_locked(query)
            gamma_expr = self.gamma_expr
            probabilities = self._probability_map()
        estimate = karp_luby(
            to_dnf(q_expr),
            probabilities,
            epsilon=epsilon,
            delta=delta,
            rng=rng,
            constraint=gamma_expr,
            constraint_probability=self.gamma_probability,
        )
        probability = min(estimate.estimate / self.gamma_probability, 1.0)
        check_probability(probability, context="conditioned sampled posterior")
        return ConditionedAnswer(
            probability=probability,
            joint=estimate.estimate,
            gamma_probability=self.gamma_probability,
            exact=False,
            method="conditioned-karp-luby",
            guarantee=(
                f"relative error ≤ {epsilon} with probability ≥ {1 - delta} "
                "(Karp–Luby on P(Q∧Γ) with Γ-rejection, exact P(Γ))"
            ),
            detail=f"{estimate.samples} seeded union-space samples",
            epsilon=epsilon,
            delta=delta,
            samples=estimate.samples,
        )

    # -- per-fact posteriors ---------------------------------------------------

    def _compiled_locked(self) -> Circuit:
        if self._compiled_gamma is None:
            self._compiled_gamma = compile_decision_dnnf(
                self.gamma_expr, self._probability_map()
            )
        circuit = self._compiled_gamma.circuit
        assert circuit is not None  # compile_decision_dnnf always records a trace
        return circuit

    def _fact_reports_locked(self) -> Dict[int, VariableReport]:
        """Per-variable reports from one differentiation pass, memoized.

        Base scenarios differentiate their own compiled circuit. What-if
        derivations differentiate the *base* scenario's circuit with each
        forced variable's probability pinned to 1/0 — re-weighting a
        d-DNNF conditions it exactly, so Γ' never needs its own compile.
        Sound for the scenario's lifetime: pooled variables keep their
        probabilities, and Γ never changes after compile. Variables pooled
        later (by query grounding) are absent — they cannot appear in Γ.
        (Forced variables' ``prior`` fields read as the pinned 1/0 here;
        :meth:`fact_posteriors` reports true priors via its own path.)
        """
        if self._fact_reports is None:
            circuit = self._root._compiled_locked()
            self._fact_reports = differentiate(
                circuit, self._pinned_probabilities_locked()
            )
        return self._fact_reports

    def fact_posteriors(self) -> Dict[Fact, VariableReport]:
        """Posterior marginals ``P(f | Γ)`` for every constraint-relevant fact.

        Base scenarios differentiate the compiled constraint circuit in
        one pass (:func:`repro.kc.differentiate.differentiate`); what-if
        derivations use per-variable cofactor counts against the shared
        count cache instead (their Γ was never compiled — that is the
        point of :meth:`whatif`). Forced facts report posterior 1/0.
        """
        with self._lock:
            if not self._forced:
                reports = self._fact_reports_locked()
                out = {
                    self.pool.fact_of_var[var]: report
                    for var, report in reports.items()
                    if var in set(self._gamma_vars)
                }
            else:
                out = self._cofactor_reports_locked()
        return out

    def _cofactor_reports_locked(self) -> Dict[Fact, VariableReport]:
        p_gamma = self.gamma_probability
        out: Dict[Fact, VariableReport] = {}
        interesting = sorted(set(self._gamma_vars) | set(self._forced))
        for var in interesting:
            fact = self.pool.fact_of_var[var]
            prior = self.pool.probabilities[var]
            forced = self._forced.get(var)
            if forced is not None:
                out[fact] = VariableReport(
                    prior=prior,
                    posterior=1.0 if forced else 0.0,
                    derivative=0.0,
                )
                continue
            high = self._count_locked(restrict(self.gamma_expr, {var: True}))
            low = self._count_locked(restrict(self.gamma_expr, {var: False}))
            posterior = min(prior * high / p_gamma, 1.0)
            check_probability(posterior, context="cofactor fact posterior")
            out[fact] = VariableReport(
                prior=prior, posterior=posterior, derivative=high - low
            )
        return out

    # -- top-k worlds ----------------------------------------------------------

    def top_k_worlds(self, k: int) -> List[WorldCandidate]:
        """The k most probable Γ-satisfying worlds, best first (exact).

        Worlds assign the constraint-relevant facts (see
        :meth:`world_facts`); all other facts are marginalized out, so the
        candidates' posteriors sum to at most 1 over the full enumeration.
        """
        with self._lock:
            circuit = self._compiled_locked()
            free = [var for var in self._gamma_vars if var not in self._forced]
            probabilities = {
                var: self.pool.probabilities[var] for var in free
            }
            explanations = top_k_models(circuit, probabilities, k)
        out: List[WorldCandidate] = []
        for explanation in explanations:
            world = {
                self.pool.fact_of_var[var]: value
                for var, value in explanation.assignment.items()
            }
            for var, value in self._forced.items():
                world[self.pool.fact_of_var[var]] = value
            posterior = min(explanation.probability / self.gamma_probability, 1.0)
            check_probability(posterior, context="top-k world posterior")
            out.append(
                WorldCandidate(
                    world=world,
                    probability=explanation.probability,
                    posterior=posterior,
                )
            )
        return out

    # -- what-if ---------------------------------------------------------------

    def whatif(self, force: Mapping[Union[str, Fact], bool]) -> "ConditionedScenario":
        """Derive the scenario with facts forced in (True) or out (False).

        Incremental re-conditioning: the forced literals are cofactored
        out of Γ with the kernel's memoized restriction — no recompile —
        and the derived scenario shares this one's pool, count cache and
        lock. Forcing an impossible state (an absent fact in, a certain
        fact out, or evidence contradicting Γ) raises
        :class:`InconsistentConstraints`.
        """
        with self._lock:
            assignment: Dict[int, bool] = {}
            merged = dict(self._forced)
            for spec, value in force.items():
                fact = (
                    spec
                    if isinstance(spec, tuple)
                    else _parse_fact(self.pdb, spec)
                )
                probability = self.pdb.tid.probability_of_fact(fact[0], fact[1])
                value = bool(value)
                if value and probability <= 0.0:
                    raise InconsistentConstraints(
                        f"cannot force absent fact {fact!r} into the database"
                    )
                if not value and probability >= 1.0:
                    raise InconsistentConstraints(
                        f"cannot force certain fact {fact!r} out of the database"
                    )
                if not value and probability <= 0.0:
                    continue  # already impossible: forcing it out is vacuous
                var = self.pool.variable(fact, probability)
                if merged.get(var, value) != value:
                    raise InconsistentConstraints(
                        f"fact {fact!r} forced both in and out"
                    )
                assignment[var] = value
                merged[var] = value
            gamma2 = restrict(self.gamma_expr, assignment) if assignment else self.gamma_expr
            if self._root._compiled_gamma is not None:
                # The base circuit is already compiled: one linear
                # evaluation under the pinned measure beats a DPLL count
                # of the cofactored Γ.
                probabilities = self._probability_map()
                for var, value in merged.items():
                    probabilities[var] = 1.0 if value else 0.0
                p2 = self._root._compiled_locked().wmc(probabilities)
            else:
                p2 = self._count_locked(gamma2)
        if p2 <= 0.0:
            raise InconsistentConstraints(
                f"forcing {dict(force)!r} contradicts the constraints"
            )
        derived = ConditionedScenario(
            self.pdb,
            self.constraints,
            pool=self.pool,
            gamma_expr=gamma2,
            gamma_probability=p2,
            gamma_vars=tuple(
                sorted(set(gamma2.variables()) | set(merged))
            ),
            forced=merged,
            counts=self._counts,
            lock=self._lock,
            db_fingerprint=self.db_fingerprint,
        )
        derived._root = self._root
        return derived

    def forced_fingerprint(self) -> str:
        """A content hash of the what-if evidence (empty string when none)."""
        if not self._forced:
            return ""
        parts = ["forced"]
        for var in sorted(self._forced):
            parts.append(repr(self.pool.fact_of_var[var]))
            parts.append("1" if self._forced[var] else "0")
        return digest(parts)


def condition_database(
    db: Union[ProbabilisticDatabase, TupleIndependentDatabase],
    constraints: Union[ConstraintSet, str, Iterable[Union[str, Constraint]]],
) -> ConditionedScenario:
    """Convenience alias for :meth:`ConditionedScenario.compile`."""
    return ConditionedScenario.compile(db, constraints)
