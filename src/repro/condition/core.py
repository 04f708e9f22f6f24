"""Compile a constraint set Γ once; serve ``P(Q | Γ)``, top-k and what-if.

Conditioning (Koch–Olteanu, arXiv:0803.2212) turns a tuple-independent
database into the posterior distribution ``P(W | W ⊨ Γ)``. A scenario is
a pair *(pins, G)*:

* the **pins** are Γ's fact literals ``+R(a)`` / ``-R(a)`` and every
  what-if force — evidence on one fact, which sets that fact's
  probability to 1 or 0;
* **G** is the conjunction of Γ's query constraints, grounded over the
  scenario's variable pool and restricted by the literals.

Under the pinned measure P_π, ``P(Q | Γ) = P_π(Q ∧ G) / P_π(G)``. A
scenario family (a base scenario and its what-if derivations) compiles G
once into a decision circuit — the clause-path DPLL trace when G is one
positive query, that trace with its leaves swapped for one ``!Q``, the
general loop's decision-DNNF otherwise — and answers by evaluating or
differentiating that circuit under its pins:

* ``gamma_probability`` — ``P_π(G)`` times the prior factor of Γ's
  unforced literals: ``P(Γ)`` for a base scenario, ``P(Γ | F)`` for a
  what-if with evidence F;
* ``posterior(Q)`` — Q's lineage is grounded over the scenario's pool and
  restricted by the pins. A single fact of G reads a differentiation pass
  (base) or one circuit evaluation with the fact pinned (what-if); a Q
  sharing no variable with G is independent of it, ``P(Q)``; otherwise
  ``P_π(Q ∧ G)`` is counted per request, on the clause path as the clause
  set {q ∪ g} when Q and G are positive queries;
* ``fact_posteriors()`` — every constraint-relevant fact's posterior from
  one differentiation pass (:mod:`repro.kc.differentiate`);
* ``top_k_worlds(k)`` — the k most probable Γ-worlds by the
  branch-and-bound of :mod:`repro.kc.mpe` over the same circuit;
* ``whatif(force)`` — pins more facts: one evaluation of the family's
  circuit, never a recompile.

Constraint grammar (one constraint per spec string)::

    +R(1,2)        assert: the fact R(1,2) is in  (condition on X = 1)
    -R(1,2)        deny:   the fact R(1,2) is out (condition on X = 0)
    R(x), S(x,y)   require: the Boolean query must hold
    ! R(x), T(x)   forbid:  the Boolean query must be false

Queries use the engine's full syntax (FO sentence, CQ or UCQ shorthand);
constants are integers or quoted strings, as in the parser.

Thread safety: a scenario family shares one
:class:`~repro.sanitize.RankedLock` of rank
:data:`~repro.sanitize.RANK_SCENARIO`, held across pool growth and
counting — evaluations against one family serialize, distinct scenarios
proceed independently. The lock wraps only kernel, counter and circuit
work, never another ranked lock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from ..booleans.expr import BAnd, BExpr, BNot, BOr, BVar, bnot
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
from ..wmc.dpll import DPLLCounter, compile_decision_dnnf, positive_dnf_clauses
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


@dataclass(frozen=True)
class _Family:
    """What a base scenario and its what-if derivations share.

    The pool only grows (query grounding adds facts) and only under
    ``lock``; everything else is fixed at compile time.
    """

    pdb: ProbabilisticDatabase
    constraints: ConstraintSet
    pool: VariablePool
    lock: RankedLock
    db_fingerprint: str
    #: Γ's fact literals: variable → the value Γ pins it to.
    literals: Dict[int, bool]
    #: Γ as grounded (literals ∧ query constraints), for Γ-rejection sampling.
    gamma_expr: BExpr
    #: The query constraints G, restricted by the literals.
    g_expr: BExpr
    #: G's decision circuit, evaluated under each scenario's pins.
    circuit: Circuit
    #: The facts Γ mentions, in variable order.
    gamma_vars: Tuple[int, ...]


def _compile(g_expr: BExpr, probabilities: Mapping[int, float]) -> Circuit:
    """G's decision circuit: the DPLL trace (the clause path's when G is a
    positive query), with the leaves swapped when G is one negated positive
    query — a trace of decision nodes only negates that way."""
    if isinstance(g_expr, BNot) and positive_dnf_clauses(g_expr.sub) is not None:
        return _compile(g_expr.sub, probabilities).negated()
    circuit = compile_decision_dnnf(g_expr, probabilities).circuit
    assert circuit is not None  # compile_decision_dnnf always records a trace
    return circuit


class ConditionedScenario:
    """A compiled constraint set and everything served against it.

    Build with :meth:`compile` (or :func:`condition_database`); derive
    what-if variants with :meth:`whatif`. A base scenario and its
    derivations form one family sharing the variable pool, G's compiled
    circuit and the family lock; a scenario adds only its pins.
    """

    def __init__(self, family: _Family, forced: Mapping[int, bool]) -> None:
        """A scenario of *family* with what-if evidence *forced*; call with
        the family lock held (it reads the pool)."""
        self._family = family
        self.pdb = family.pdb
        self.constraints = family.constraints
        self.pool = family.pool
        self.db_fingerprint = family.db_fingerprint
        self._lock = family.lock
        self._forced = dict(forced)
        self._pins = {**family.literals, **self._forced}
        self._world_vars = tuple(sorted(set(family.gamma_vars) | set(forced)))
        # Evidence contributes no prior mass: only unforced literals do.
        factor = 1.0
        for var, value in family.literals.items():
            if var not in self._forced:
                prior = self.pool.probabilities[var]
                factor *= prior if value else 1.0 - prior
        self._prior_factor = factor
        #: P_π(G), the constraint mass under this scenario's pins.
        self._mass = family.circuit.wmc(self._weights())
        self.gamma_probability = factor * self._mass
        self._g: Optional[BExpr] = None
        self._fact_reports: Optional[Dict[int, VariableReport]] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def compile(
        cls,
        db: Union[ProbabilisticDatabase, TupleIndependentDatabase],
        constraints: Union[ConstraintSet, str, Iterable[Union[str, Constraint]]],
    ) -> "ConditionedScenario":
        """Ground Γ, pin its literals and compile G once; raises on an
        impossible constraint set."""
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
        impossible = InconsistentConstraints(
            f"constraints have probability zero: {gamma}"
        )
        tid = pdb.tid
        pool = VariablePool()
        literals: Dict[int, bool] = {}
        parts: List[BExpr] = []
        queries: List[BExpr] = []
        for constraint in gamma:
            if constraint.kind in ("assert", "deny"):
                fact = _parse_fact(pdb, constraint.text)
                probability = tid.probability_of_fact(fact[0], fact[1])
                value = constraint.kind == "assert"
                if probability <= 0.0:
                    # An absent fact: asserting it is impossible, denying it
                    # is vacuous — neither pollutes the pool.
                    if value:
                        raise impossible
                    continue
                literal = pool.literal(fact, probability)
                if literals.setdefault(literal.index, value) != value:
                    raise impossible
                parts.append(literal if value else bnot(literal))
            else:
                expr = lineage_of(pdb.parse_query(constraint.text), tid, pool).expr
                queries.append(expr if constraint.kind == "require" else bnot(expr))
        gamma_expr = BAnd.of(parts + queries)
        g_expr = restrict(BAnd.of(queries), literals)
        family = _Family(
            pdb=pdb,
            constraints=gamma,
            pool=pool,
            lock=RankedLock(RANK_SCENARIO, "condition.scenario"),
            db_fingerprint=tid.fingerprint(),
            literals=literals,
            gamma_expr=gamma_expr,
            g_expr=g_expr,
            circuit=_compile(g_expr, pool.probability_map()),
            gamma_vars=tuple(sorted(gamma_expr.variables())),
        )
        with family.lock:
            scenario = cls(family, {})
        if scenario.gamma_probability <= 0.0:
            raise impossible
        return scenario

    # -- the pinned measure ----------------------------------------------------

    def _weights(self) -> Dict[int, float]:
        """The pool's priors with every pinned fact at 1 or 0: the measure
        P_π under which ``P(Q | Γ) = P_π(Q ∧ G) / P_π(G)``."""
        weights = dict(enumerate(self.pool.probabilities))
        for var, value in self._pins.items():
            weights[var] = 1.0 if value else 0.0
        return weights

    def _ground_locked(self, query: Query, pins: Mapping[int, bool]) -> BExpr:
        parsed = self.pdb.parse_query(query)
        return restrict(lineage_of(parsed, self.pdb.tid, self.pool).expr, pins)

    def _g_locked(self) -> BExpr:
        """G restricted by this scenario's pins."""
        if self._g is None:
            self._g = restrict(self._family.g_expr, self._forced)
        return self._g

    def _conditional_locked(self, q_expr: BExpr) -> float:
        """``P_π(Q | G)`` for a query lineage restricted by the pins.

        A single fact of Γ reads the differentiation pass of a base
        scenario, or one evaluation of the circuit with the fact pinned
        for a what-if. A Q sharing no variable with G is independent of
        it: ``P(Q)``. Otherwise ``P_π(Q ∧ G)`` is counted — on the clause
        path as the clause set {q ∪ g} when both are positive queries, by
        the general loop otherwise — and divided by ``P_π(G)``.
        """
        if isinstance(q_expr, BVar) and q_expr.index in self._family.g_expr.variables():
            var = q_expr.index
            if not self._forced:
                return self._fact_reports_locked()[var].posterior
            weights = self._weights()
            weights[var] = 1.0
            # P(f | Γ, F) = p_f · P_π(G | f=1) / P_π(G)
            return self.pool.probabilities[var] * self._family.circuit.wmc(weights) / self._mass
        g_expr = self._g_locked()
        counter = DPLLCounter()
        if q_expr.variables().isdisjoint(g_expr.variables()):
            return counter.run(q_expr, self._weights()).probability
        q_clauses = positive_dnf_clauses(q_expr)
        g_clauses = positive_dnf_clauses(g_expr)
        if q_clauses is not None and g_clauses is not None:
            # Q ∧ G = ⋁ q ∧ g over clause pairs; a clause containing a clause
            # of the other side implies that side and stands for its pairs.
            q_sets = [frozenset(c) for c in q_clauses]
            g_sets = [frozenset(c) for c in g_clauses]
            clauses: List[FrozenSet[int]] = []
            free_q: List[FrozenSet[int]] = []
            free_g: List[FrozenSet[int]] = []
            for own, other, free in ((q_sets, g_sets, free_q), (g_sets, q_sets, free_g)):
                for c in own:
                    (clauses if any(o <= c for o in other) else free).append(c)
            clauses += [q | g for q in free_q for g in free_g]
            nodes = self.pool.node_of_var
            joint = BOr.of(BAnd.of([nodes[v] for v in c]) for c in clauses)
        else:
            joint = BAnd.of((q_expr, g_expr))
        return counter.run(joint, self._weights()).probability / self._mass

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

    @property
    def gamma_expr(self) -> BExpr:
        """Γ as one formula, literals included, with the evidence restricted out."""
        return restrict(self._family.gamma_expr, self._forced)

    def world_facts(self) -> List[Fact]:
        """The constraint-relevant facts :meth:`top_k_worlds` assigns."""
        return [self.pool.fact_of_var[var] for var in self._world_vars]

    def posterior(self, query: Query) -> ConditionedAnswer:
        """``P(Q | Γ)`` exactly, as ``P_π(Q ∧ G) / P_π(G)`` under the pins."""
        with self._lock:
            conditional = self._conditional_locked(self._ground_locked(query, self._pins))
        probability = min(conditional, 1.0)
        check_probability(probability, context="conditioned posterior")
        p_gamma = self.gamma_probability
        joint = probability * p_gamma
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
            q_expr = self._ground_locked(query, self._forced)
            gamma_expr = self.gamma_expr
            probabilities = self.pool.probability_map()
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

    def _fact_reports_locked(self) -> Dict[int, VariableReport]:
        """A report per constraint-relevant fact, memoized.

        One differentiation pass over G's circuit under the pins gives
        every free fact's posterior; ``derivative`` is ∂P(Γ)/∂p (for a
        what-if, of ``P(Γ | F)``). A pinned fact's posterior is its pin:
        evidence has derivative 0, and P(Γ) is linear in a literal's prior.
        """
        if self._fact_reports is None:
            weights = self._weights()
            free = differentiate(
                self._family.circuit, {var: weights[var] for var in self._world_vars}
            )
            reports: Dict[int, VariableReport] = {}
            for var in self._world_vars:
                prior = self.pool.probabilities[var]
                pinned = self._pins.get(var)
                if pinned is None:
                    report = free[var]
                    derivative = self._prior_factor * report.derivative
                    posterior = report.posterior
                else:
                    posterior = 1.0 if pinned else 0.0
                    derivative = (
                        0.0
                        if var in self._forced
                        else self.gamma_probability / (prior if pinned else prior - 1.0)
                    )
                reports[var] = VariableReport(prior, posterior, derivative)
            self._fact_reports = reports
        return self._fact_reports

    def fact_posteriors(self) -> Dict[Fact, VariableReport]:
        """Posterior marginals ``P(f | Γ)`` for every constraint-relevant fact.

        One differentiation pass of G's circuit under this scenario's pins
        (:func:`repro.kc.differentiate.differentiate`); Γ's literals and
        forced facts report posterior 1/0.
        """
        with self._lock:
            reports = self._fact_reports_locked()
        return {self.pool.fact_of_var[var]: report for var, report in reports.items()}

    # -- top-k worlds ----------------------------------------------------------

    def top_k_worlds(self, k: int) -> List[WorldCandidate]:
        """The k most probable Γ-satisfying worlds, best first (exact).

        Worlds assign the constraint-relevant facts (see
        :meth:`world_facts`); all other facts are marginalized out, so the
        candidates' posteriors sum to at most 1 over the full enumeration.
        """
        literals = self._family.literals
        with self._lock:
            weights = self._weights()
            free = {var: weights[var] for var in self._world_vars if var not in literals}
            # Forced facts weigh 1/0: every world takes their value at factor 1.
            explanations = top_k_models(self._family.circuit, free, k)
        out: List[WorldCandidate] = []
        for explanation in explanations:
            world = {
                self.pool.fact_of_var[var]: value
                for var, value in {**explanation.assignment, **literals}.items()
            }
            probability = self._prior_factor * explanation.probability
            posterior = min(probability / self.gamma_probability, 1.0)
            check_probability(posterior, context="top-k world posterior")
            out.append(
                WorldCandidate(world=world, probability=probability, posterior=posterior)
            )
        return out

    # -- what-if ---------------------------------------------------------------

    def whatif(self, force: Mapping[Union[str, Fact], bool]) -> "ConditionedScenario":
        """Derive the scenario with facts forced in (True) or out (False).

        Incremental re-conditioning by re-weighting: the forced facts join
        the pins, and ``P(Γ | F)`` is one evaluation of the family's
        circuit — no recompile. The derived scenario shares this one's
        pool, circuit and lock. Forcing an impossible state (an absent fact
        in, a certain fact out, a fact against a Γ literal, or evidence
        contradicting Γ) raises :class:`InconsistentConstraints`.
        """
        contradiction = InconsistentConstraints(
            f"forcing {dict(force)!r} contradicts the constraints"
        )
        with self._lock:
            forced = dict(self._forced)
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
                if forced.get(var, value) != value:
                    raise InconsistentConstraints(
                        f"fact {fact!r} forced both in and out"
                    )
                if self._family.literals.get(var, value) != value:
                    raise contradiction
                forced[var] = value
            derived = ConditionedScenario(self._family, forced)
        if derived.gamma_probability <= 0.0:
            raise contradiction
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
