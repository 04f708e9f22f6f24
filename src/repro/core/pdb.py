"""The public façade: a probabilistic database with strategy dispatch.

``ProbabilisticDatabase.probability(query)`` first decides from the query's
structure alone (:meth:`ProbabilisticDatabase.structural_route`, shared with
the serving ladder), then falls through to grounded inference:

1. **safe plan** — a hierarchical self-join-free CQ runs extensionally inside
   the relational engine (Sec. 6), on the columnar executor of
   :mod:`repro.plans.vectorized`; a non-hierarchical one is #P-hard (Thm.
   4.3) and skips to step 3 without trying the lifted rules;
2. **lifted** — anything else (self-joins, unions, unate sentences) runs the
   rule engine of Sec. 5 (polynomial, exact) when the data-free derivation,
   cached per query shape, lifts it; otherwise it skips to step 3;
3. **dpll** — grounded inference: lineage + exact DPLL model counting with
   caching and components (Sec. 7), for at most ⌈3·n·ln(2/δ)/ε²⌉ calls on
   n ≥ 1 lineage variables at (``mc_epsilon``, ``mc_delta``): a call touches
   at most the m DNF clauses and step 4 draws ⌈3·m·ln(2/δ)/ε²⌉ samples of n
   variables, so a count given up costs no more than the sampled answer;
4. **karp-luby** — past that budget, the DNF FPRAS (relative ε); ``detail``
   and ``stats.reason`` name the budget;
5. **monte-carlo** — naive sampling (additive ε), when the DNF is too large
   to materialize. Steps 4–5 are one sampled step, which the serving
   ladder's ``sampled`` rung takes too.

Each answer records which route fired and why, carries the rule trace, plan
profile or approximation certificate, and a :class:`~repro.engine.stats.QueryStats`
with per-stage wall-times (parse / lineage / compile / count) so that
``explain()`` output is uniform across all six routes.

The approximate routes draw from ``random.Random(self.seed)``: with a seed
set, repeated evaluations of the same query return identical estimates.

For memoization across repeated queries, wrap the database in a
:class:`repro.engine.EngineSession`; the ``lineage_factory`` hook below is
how the session shares its content-addressed lineage cache with dispatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence, Union

from ..booleans.forms import FormSizeExceeded, to_dnf
from ..engine.stats import QueryStats
from ..lifted.engine import (
    LiftedEngine,
    RuleApplication,
    lifted_probability,
    unate_ucq,
)
from ..lifted.errors import UnsupportedQueryError
from ..lifted.safety import decide_safety
from ..lineage.build import Lineage, answer_lineages, lineage_of
from ..logic.cq import (
    ConjunctiveQuery,
    UnionOfConjunctiveQueries,
    parse_cq,
    parse_ucq,
)
from ..logic.formulas import Formula
from ..logic.parser import ParseError, parse_sentence
from ..logic.terms import Var
from ..plans.plan import project_boolean
from ..plans.safe_plan import UnsafePlanError, safe_plan
from ..plans.vectorized import execute_boolean_columnar
from ..sanitize import check_probability
from ..wmc.dpll import DPLLBudgetExceeded, DPLLCounter
from ..wmc.karp_luby import karp_luby, karp_luby_samples
from ..wmc.sampling import SampledEstimate, monte_carlo_wmc
from .tid import TupleIndependentDatabase

Query = Union[str, Formula, ConjunctiveQuery, UnionOfConjunctiveQueries]
LineageFactory = Callable[[object], Lineage]


class Method(Enum):
    """Inference routes, best first."""

    LIFTED = "lifted"
    SAFE_PLAN = "safe-plan"
    DPLL = "dpll"
    KARP_LUBY = "karp-luby"
    MONTE_CARLO = "monte-carlo"
    BRUTE_FORCE = "brute-force"
    AUTO = "auto"


@dataclass
class QueryAnswer:
    """A probability plus how it was obtained."""

    probability: float
    method: Method
    exact: bool
    detail: str = ""
    lifted_trace: tuple[RuleApplication, ...] = ()
    stats: Optional[QueryStats] = None

    def __float__(self) -> float:
        return self.probability


@dataclass
class ProbabilisticDatabase:
    """A TID plus every inference engine of the library."""

    tid: TupleIndependentDatabase = field(default_factory=TupleIndependentDatabase)
    mc_epsilon: float = 0.02
    mc_delta: float = 0.05
    seed: Optional[int] = None

    def settings(self) -> dict:
        """Every field but the data, as picklable keyword arguments: a worker
        process rebuilds an equal façade as ``ProbabilisticDatabase(tid=...,
        **settings)``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "tid"}

    # -- data definition -----------------------------------------------------

    def add_relation(self, name: str, attributes: Sequence[str]):
        return self.tid.add_relation(name, attributes)

    def add_fact(self, name: str, values: Iterable, probability: float = 1.0) -> None:
        self.tid.add_fact(name, values, probability)

    def set_domain(self, domain: Iterable) -> None:
        self.tid.explicit_domain = frozenset(domain)

    @property
    def domain(self) -> tuple:
        return self.tid.domain()

    # -- query parsing ---------------------------------------------------------

    @staticmethod
    def parse_query(query: Query) -> Formula | ConjunctiveQuery | UnionOfConjunctiveQueries:
        """Accept FO syntax, CQ shorthand ("R(x), S(x,y)") or UCQ shorthand."""
        if not isinstance(query, str):
            return query
        text = query.strip()
        try:
            return parse_sentence(text)
        except ParseError:
            pass
        if "|" in text:
            return parse_ucq(text)
        return parse_cq(text)

    def rng(self) -> random.Random:
        """A fresh generator for the approximate routes.

        Seeded from ``self.seed`` so that, with a seed set, every evaluation
        of the same query draws the same sample stream and the Karp–Luby /
        Monte Carlo estimates are reproducible.
        """
        return random.Random(self.seed)

    # -- inference routes ---------------------------------------------------------

    def probability(
        self,
        query: Query,
        method: Method = Method.AUTO,
        *,
        stats: Optional[QueryStats] = None,
        lineage_factory: Optional[LineageFactory] = None,
        budget: Optional[tuple[float, float]] = None,
    ) -> QueryAnswer:
        """Evaluate a Boolean query; see the module docstring for routing.

        *stats*, when given, accumulates stage timings into an existing
        record (the engine session passes one that already holds cache
        lookup time); otherwise a fresh one is created. *lineage_factory*
        overrides how routes obtain the grounded lineage — the session uses
        it to serve lineages from its content-addressed cache. *budget*
        (ε, δ) caps a DPLL count like AUTO's, raising :class:`DPLLBudgetExceeded`.
        """
        stats = stats if stats is not None else QueryStats()
        with stats.stage("parse"):
            parsed = self.parse_query(query)
        if isinstance(parsed, Formula) and parsed.free_variables():
            raise ValueError(
                "probability() takes Boolean queries; use answers() for "
                "queries with free variables"
            )
        self.check_arities(parsed)
        answer = self._dispatch(
            parsed, method, stats=stats, lineage_factory=lineage_factory, budget=budget
        )
        # Sanitizer (no-op unless REPRO_SANITIZE=1): every route must
        # return a probability.
        check_probability(
            answer.probability, context=f"route {answer.method.value}"
        )
        stats.route = answer.method.value
        answer.stats = stats
        return answer

    def check_arities(self, parsed) -> None:
        """Reject an atom whose arity contradicts the stored relation's: the
        lifted and grounded routes would answer a silent 0.0 where the safe
        plan raises. An unknown predicate stays an empty relation."""
        if isinstance(parsed, Formula):
            atoms: Iterable = parsed.atoms()
        else:
            atoms = (a for q in getattr(parsed, "disjuncts", (parsed,)) for a in q.atoms)
        for atom in atoms:
            stored = self.tid.relations.get(atom.predicate)
            if stored is not None and stored.arity != atom.arity:
                raise ValueError(
                    f"{atom.predicate} is stored with arity {stored.arity} "
                    f"but queried with {atom.arity} arguments"
                )

    def _dispatch(
        self,
        parsed,
        method: Method,
        *,
        stats: Optional[QueryStats] = None,
        lineage_factory: Optional[LineageFactory] = None,
        budget: Optional[tuple[float, float]] = None,
    ) -> QueryAnswer:
        stats = stats if stats is not None else QueryStats()
        if method is Method.AUTO:
            return self._auto(parsed, stats=stats, lineage_factory=lineage_factory)
        if method is Method.LIFTED:
            return self._lifted(parsed, stats=stats)
        if method is Method.SAFE_PLAN:
            return self._safe_plan(parsed, stats=stats)
        if method is Method.DPLL:
            return self._dpll(parsed, stats=stats, lineage_factory=lineage_factory, budget=budget)
        if method in (Method.KARP_LUBY, Method.MONTE_CARLO):
            lineage = self._get_lineage(parsed, None, lineage_factory, stats)
            return self._sampled(
                lineage, self.mc_epsilon, self.mc_delta, stats, only=method
            )[0]
        if method is Method.BRUTE_FORCE:
            return self._brute(parsed, stats=stats)
        raise ValueError(f"unknown method {method}")

    @staticmethod
    def structural_route(
        parsed, stats: Optional[QueryStats] = None
    ) -> tuple[Optional[Method], str]:
        """The data-independent half of routing, ``(route, reason)``, where AUTO
        and the serving ladder's exact rung both start. Theorem 4.3 decides a
        self-join-free CQ from its shape: hierarchical ⇔ a safe plan exists,
        otherwise #P-hard — route ``None``, ground it. For anything else the
        lifted rules decide, through :func:`~repro.lifted.safety.decide_safety`'s
        data-free derivation, cached per query shape; *stats*, when given,
        records whether that shape was already decided
        (``derivation_cache_hit``)."""
        if isinstance(parsed, ConjunctiveQuery) and not parsed.has_self_joins():
            if not parsed.is_hierarchical():
                try:
                    safe_plan(parsed)  # fails, naming the subquery that blocks it
                except UnsafePlanError as error:
                    return None, f"{error} → grounded"
            return Method.SAFE_PLAN, "hierarchical self-join-free CQ → safe plan"
        if not isinstance(parsed, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
            try:
                parsed = unate_ucq(parsed)[0]
            except UnsupportedQueryError as error:
                return None, f"{error} → grounded"
        verdict = decide_safety(parsed)
        if stats is not None:
            stats.counters["derivation_cache_hit"] = int(verdict.cache_hit)
        if verdict.error is not None:
            return None, f"{verdict.error} → grounded"
        return Method.LIFTED, "self-joins, union or sentence → lifted rules"

    def _auto(
        self,
        parsed,
        *,
        stats: QueryStats,
        lineage_factory: Optional[LineageFactory],
    ) -> QueryAnswer:
        route, stats.reason = self.structural_route(parsed, stats)
        if route is not None:
            return self._dispatch(parsed, route, stats=stats)
        lineage = self._get_lineage(parsed, None, lineage_factory, stats)
        sampler = (self.mc_epsilon, self.mc_delta)
        try:
            answer = self._dpll(parsed, lineage, stats=stats, budget=sampler)
        except DPLLBudgetExceeded as stopped:
            stats.reason += f"; {stopped} → sampled"
            answer = self._sampled(lineage, *sampler, stats)[0]
        answer.detail += f" (lifted failed: {stats.reason})"
        return answer

    def _lifted(self, parsed, *, stats: Optional[QueryStats] = None) -> QueryAnswer:
        stats = stats if stats is not None else QueryStats()
        with stats.stage("count"):
            if isinstance(parsed, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
                engine = LiftedEngine(self.tid, record_trace=True)
                probability = engine.probability(parsed)
                trace = tuple(engine.trace)
            else:
                probability = lifted_probability(parsed, self.tid)
                trace = ()
        return QueryAnswer(
            probability,
            Method.LIFTED,
            exact=True,
            detail="lifted inference (rules of Sec. 5)",
            lifted_trace=trace,
        )

    def _safe_plan(self, parsed, *, stats: Optional[QueryStats] = None) -> QueryAnswer:
        stats = stats if stats is not None else QueryStats()
        if not isinstance(parsed, ConjunctiveQuery):
            raise UnsafePlanError("safe plans apply to conjunctive queries")
        with stats.stage("compile"):
            plan = project_boolean(safe_plan(parsed, self.tid))
        with stats.stage("count"):
            probability = execute_boolean_columnar(plan, self.tid, profile=stats.operators)
        return QueryAnswer(
            probability, Method.SAFE_PLAN, exact=True, detail=f"safe plan: {plan}"
        )

    def _get_lineage(
        self,
        parsed,
        lineage: Optional[Lineage],
        factory: Optional[LineageFactory],
        stats: QueryStats,
    ) -> Lineage:
        if lineage is not None:
            return lineage
        with stats.stage("lineage"):
            return factory(parsed) if factory is not None else lineage_of(parsed, self.tid)

    def _dpll(
        self,
        parsed,
        lineage: Optional[Lineage] = None,
        *,
        stats: Optional[QueryStats] = None,
        lineage_factory: Optional[LineageFactory] = None,
        budget: Optional[tuple[float, float]] = None,
    ) -> QueryAnswer:
        stats = stats if stats is not None else QueryStats()
        lineage = self._get_lineage(parsed, lineage, lineage_factory, stats)
        n = lineage.variable_count
        limit = karp_luby_samples(max(n, 1), *budget) if budget else float("inf")
        try:
            with stats.stage("count"):
                result = DPLLCounter().run(lineage.expr, lineage.probabilities(), limit)
        except DPLLBudgetExceeded as stopped:
            where = f"({n} variables, ε={budget[0]}, δ={budget[1]})"  # type: ignore[index]
            raise DPLLBudgetExceeded(f"DPLL stopped after {stopped} calls > budget {limit} {where}")
        counted = result.statistics
        stats.counters.update(
            kernel_unique_nodes=counted.kernel_unique_nodes,
            kernel_intern_hits=counted.kernel_intern_hits,
            cofactor_memo_hits=counted.cofactor_memo_hits,
            cofactor_memo_misses=counted.cofactor_memo_misses,
        )
        kernel = f"{counted.cofactor_memo_hits} cofactor-memo hits"
        if counted.path == "clause":
            stats.counters.update(
                clause_expansions=counted.shannon_expansions,
                clause_or_splits=counted.or_splits,
                clause_cache_hits=counted.cache_hits,
            )
            kernel = "kernel bypassed: no cofactor-memo hits"
        return QueryAnswer(
            result.probability,
            Method.DPLL,
            exact=True,
            detail=(
                f"grounded: {n} lineage variables, "
                f"{counted.path} path: {counted.shannon_expansions} Shannon "
                f"expansions, {counted.or_splits} or-splits, "
                f"{counted.cache_hits} cache hits, {kernel}"
            ),
        )

    def _sampled(
        self,
        lineage: Lineage,
        epsilon: float,
        delta: float,
        stats: QueryStats,
        only: Optional[Method] = None,
    ) -> tuple[QueryAnswer, SampledEstimate]:
        """The one sampled step behind every approximate answer (AUTO's
        grounded tail, the direct routes, the serving ladder's sampled
        rung): seeded Karp–Luby over the DNF lineage (relative ε w.p.
        ≥ 1 − δ), else, when the DNF is too large to materialize, seeded
        naive Monte Carlo (additive ε). *only* pins one estimator:
        ``KARP_LUBY`` lets :class:`FormSizeExceeded` propagate,
        ``MONTE_CARLO`` skips the DNF."""
        probabilities = lineage.probabilities()
        if only is not Method.MONTE_CARLO:
            try:
                with stats.stage("compile"):
                    clauses = to_dnf(lineage.expr)
            except FormSizeExceeded:
                if only is Method.KARP_LUBY:
                    raise
            else:
                with stats.stage("count"):
                    estimate = karp_luby(
                        clauses, probabilities, epsilon=epsilon, delta=delta, rng=self.rng()
                    )
                detail = (
                    f"Karp–Luby FPRAS: {estimate.samples} samples, relative "
                    f"error ≤ {epsilon} w.p. ≥ {1 - delta}"
                )
                answer = QueryAnswer(estimate.estimate, Method.KARP_LUBY, False, detail)
                return answer, estimate
        with stats.stage("count"):
            estimate = monte_carlo_wmc(
                lineage.expr, probabilities, epsilon=epsilon, delta=delta, rng=self.rng()
            )
        detail = (
            f"naive Monte Carlo: {estimate.samples} samples, additive "
            f"error ≤ {epsilon} w.p. ≥ {1 - delta}"
        )
        return QueryAnswer(estimate.estimate, Method.MONTE_CARLO, False, detail), estimate

    def _brute(self, parsed, *, stats: Optional[QueryStats] = None) -> QueryAnswer:
        stats = stats if stats is not None else QueryStats()
        if isinstance(parsed, (ConjunctiveQuery, UnionOfConjunctiveQueries)):
            sentence = parsed.to_formula()
        else:
            sentence = parsed
        with stats.stage("count"):
            probability = self.tid.brute_force_probability(sentence)
        return QueryAnswer(
            probability,
            Method.BRUTE_FORCE,
            exact=True,
            detail=f"possible-world enumeration ({self.tid.world_count()} worlds)",
        )

    # -- non-Boolean queries ---------------------------------------------------------

    def answers(
        self, query: Union[str, ConjunctiveQuery], head: Sequence[str | Var]
    ) -> dict[tuple, QueryAnswer]:
        """Per-answer probabilities for a CQ with output variables.

        Each answer tuple's marginal is computed from its own lineage with
        the exact DPLL counter (the "intensional semantics" route).
        """
        shared = QueryStats(route=Method.DPLL.value)
        with shared.stage("parse"):
            parsed = parse_cq(query) if isinstance(query, str) else query
        self.check_arities(parsed)
        head_vars = tuple(Var(h) if isinstance(h, str) else h for h in head)
        missing = set(head_vars) - parsed.variables
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise ValueError(f"head variables not in query: {names}")
        with shared.stage("lineage"):
            lineages, pool = answer_lineages(parsed, head_vars, self.tid)
        probabilities = pool.probability_map()
        counter = DPLLCounter()
        out: dict[tuple, QueryAnswer] = {}
        for values, expr in sorted(lineages.items(), key=lambda kv: repr(kv[0])):
            with shared.stage("count"):
                result = counter.run(expr, probabilities)
            out[values] = QueryAnswer(
                result.probability,
                Method.DPLL,
                exact=True,
                detail="per-answer lineage",
                stats=shared,
            )
        return out

    def tuple_posteriors(self, query: Query) -> dict[tuple, "object"]:
        """Posterior marginals P(t | Q) for every tuple in the lineage.

        Compiles the lineage into a decision-DNNF and differentiates it
        (one upward + one downward pass for all tuples at once). Returns
        ``{(relation, values): VariableReport}``; tuples outside the
        lineage are unaffected by the query and keep their prior.
        """
        from ..kc.differentiate import differentiate

        parsed = self.parse_query(query)
        self.check_arities(parsed)
        lineage = lineage_of(parsed, self.tid)
        probabilities = lineage.probabilities()
        from ..wmc.dpll import compile_decision_dnnf

        compiled = compile_decision_dnnf(lineage.expr, probabilities)
        reports = differentiate(compiled.circuit, probabilities)
        return {
            lineage.fact(index): report for index, report in reports.items()
        }

    def most_probable_world(self, query: Query) -> tuple[dict, float]:
        """The most likely database state in which the query is true.

        Compiles the lineage and runs a smoothed (max, ×) pass (MPE).
        Returns ``({(relation, values): present?}, probability)`` covering
        every tuple in the query's lineage; tuples outside the lineage are
        unconstrained.
        """
        from ..kc.mpe import most_probable_model
        from ..wmc.dpll import compile_decision_dnnf

        parsed = self.parse_query(query)
        self.check_arities(parsed)
        lineage = lineage_of(parsed, self.tid)
        probabilities = lineage.probabilities()
        compiled = compile_decision_dnnf(lineage.expr, probabilities)
        explanation = most_probable_model(compiled.circuit, probabilities)
        world = {
            lineage.fact(index): value
            for index, value in explanation.assignment.items()
        }
        return world, explanation.probability

    def explain(self, query: Query) -> str:
        """A human-readable account of how the query would be evaluated."""
        answer = self.probability(query)
        return explain_answer(query, answer)


def explain_answer(query: Query, answer: QueryAnswer) -> str:
    """Format a :class:`QueryAnswer` as the uniform ``explain()`` report.

    The same renderer serves every route and both the cold and cached
    paths, so ``--explain`` output has one shape engine-wide.
    """
    lines = [
        f"query method : {answer.method.value}",
        f"probability  : {answer.probability:.10g}",
        f"exact        : {answer.exact}",
        f"detail       : {answer.detail}",
    ]
    if answer.stats is not None:
        if answer.stats.reason:
            lines.append(f"route reason : {answer.stats.reason}")
        lines.append(f"cache hit    : {answer.stats.cache_hit}")
        lines.append(f"stage times  : {answer.stats.summary()}")
        for operator_line in answer.stats.operator_summary():
            lines.append(f"  {operator_line}")
        if answer.stats.counters:
            lines.append(f"kernel       : {answer.stats.counter_summary()}")
    for step in answer.lifted_trace:
        lines.append(f"  {step}")
    return "\n".join(lines)
