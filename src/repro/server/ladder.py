"""Deadline-driven degradation: exact → dissociation bounds → sampling.

A serving layer cannot afford the library's default behaviour — compute
the best answer however long it takes. The :class:`MethodLadder` instead
walks a fixed ladder of rungs, best guarantee first, and takes the first
rung whose *predicted* cost fits the request's remaining deadline:

1. ``exact`` — the polynomial route the query's structure admits
   (``ProbabilisticDatabase.structural_route``: safe plan or lifted rules),
   else grounded DPLL when the lineage is small enough. Guarantee: the
   exact probability.
2. ``bounds`` — the dissociation sandwich of Theorem 6.1
   (:mod:`repro.plans.bounds`): every minimal dissociation's safe plan is
   an upper bound on D and a lower bound on the rescaled D₁. Guarantee:
   ``lower ≤ P ≤ upper``; the reported point estimate is the midpoint, so
   its absolute error is at most ``(upper − lower) / 2``.
3. ``sampled`` — seeded Karp–Luby over the DNF lineage with the request's
   error budget (relative ε w.p. ≥ 1 − δ); if the DNF is too large to
   materialize, seeded naive Monte Carlo (additive ε). This rung always
   answers — it is the floor of the ladder.

**Conditioned evaluation.** When a request names an installed scenario
(:mod:`repro.condition`), the ladder walks a two-rung conditioned
variant instead: ``exact`` counts ``P(Q ∧ Γ) / P(Γ)`` on the scenario's
compiled circuit (gated on the grounded lineage size, like grounded
DPLL), else ``sampled`` runs Karp–Luby with Γ-rejection
(:func:`repro.condition.core.conditioned_karp_luby`). The dissociation
``bounds`` rung does not apply — the sandwich bounds ``P(Q)``, not the
conditional. The predictor keys conditioned costs per
``(query, scenario)``, so per-scenario latencies are learned separately.

**Predicted vs actual overrun.** Rung costs are predicted from an EWMA of
observed latencies per ``(query, rung)`` (:class:`CostPredictor`), seeded
by structural heuristics (liftability, lineage variable count vs the
exact limit). Python cannot preempt a running exact computation, so an
*actual* overrun — a rung that finishes after its deadline — still returns
its (correct, strictly better) answer, flagged ``deadline_exceeded``; the
observed cost feeds the predictor, so the next identical request degrades
up front. This is the standard "first request pays, the fleet learns"
behaviour of latency-budgeted serving.

Reproducibility: both sampling estimators draw from
``ProbabilisticDatabase.rng()``, which derives from the session's
``--seed``; identical servers started with the same seed return identical
degraded answers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..booleans.forms import FormSizeExceeded, to_dnf
from ..condition.core import ConditionedAnswer, ConditionedScenario
from ..core.pdb import Method, ProbabilisticDatabase, QueryAnswer
from ..engine.cache import query_fingerprint
from ..engine.session import EngineSession
from ..lifted.errors import NonLiftableError, UnsupportedQueryError
from ..logic.cq import ConjunctiveQuery
from ..sanitize import RANK_SERVER, RankedLock, check_bounds
from ..wmc.karp_luby import karp_luby
from ..wmc.sampling import monte_carlo_wmc

__all__ = ["CostPredictor", "MethodLadder", "RungAnswer"]

#: Ladder rung names, in degradation order.
RUNGS = ("exact", "bounds", "sampled")

#: EWMA smoothing factor for observed rung latencies.
_EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class RungAnswer:
    """One served answer: the probability plus the rung and its guarantee."""

    rung: str
    probability: float
    guarantee: str
    exact: bool
    method: str
    detail: str = ""
    lower: Optional[float] = None
    upper: Optional[float] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    samples: Optional[int] = None
    elapsed_s: float = 0.0
    deadline_exceeded: bool = False
    cache_hit: bool = False
    scenario: Optional[str] = None
    gamma_probability: Optional[float] = None

    def to_payload(self) -> Dict[str, Any]:
        """The response fields this answer contributes to the protocol."""
        out: Dict[str, Any] = {
            "ok": True,
            "probability": self.probability,
            "rung": self.rung,
            "guarantee": self.guarantee,
            "exact": self.exact,
            "method": self.method,
            "detail": self.detail,
        }
        if self.scenario is not None:
            out["scenario"] = self.scenario
        if self.gamma_probability is not None:
            out["gamma_probability"] = self.gamma_probability
        if self.lower is not None and self.upper is not None:
            out["bounds"] = {"lower": self.lower, "upper": self.upper}
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.delta is not None:
            out["delta"] = self.delta
        if self.samples is not None:
            out["samples"] = self.samples
        if self.deadline_exceeded:
            out["deadline_exceeded"] = True
        return out


class CostPredictor:
    """EWMA of observed per-``(query, rung)`` latencies, plus applicability.

    The lock (rank :data:`~repro.sanitize.RANK_SERVER`) is held only for
    dictionary operations, never across an evaluation.
    """

    def __init__(self) -> None:
        self._lock = RankedLock(RANK_SERVER, "server.predictor")
        self._seconds: Dict[Tuple[str, str], float] = {}
        self._inapplicable: Dict[Tuple[str, str], bool] = {}

    def observe(self, qfp: str, rung: str, seconds: float) -> None:
        key = (qfp, rung)
        with self._lock:
            previous = self._seconds.get(key)
            if previous is None:
                self._seconds[key] = seconds
            else:
                self._seconds[key] = (
                    _EWMA_ALPHA * seconds + (1.0 - _EWMA_ALPHA) * previous
                )

    def predict(self, qfp: str, rung: str) -> Optional[float]:
        with self._lock:
            return self._seconds.get((qfp, rung))

    def mark_inapplicable(self, qfp: str, rung: str) -> None:
        with self._lock:
            self._inapplicable[(qfp, rung)] = True

    def known_inapplicable(self, qfp: str, rung: str) -> bool:
        with self._lock:
            return self._inapplicable.get((qfp, rung), False)


class MethodLadder:
    """Evaluate Boolean queries against a deadline, degrading gracefully.

    Parameters
    ----------
    session:
        The shared :class:`~repro.engine.session.EngineSession`. Its seed
        governs every sampling rung; its cache memoizes exact answers and
        (keyed by error budget and seed) degraded ones.
    use_cache:
        When ``False``, every evaluation is computed from scratch through
        the bare façade — the "naive server" baseline that the coalescing
        benchmark compares against.
    default_epsilon / default_delta:
        The error budget for the sampled rung when the request names none.
    """

    def __init__(
        self,
        session: EngineSession,
        *,
        use_cache: bool = True,
        default_epsilon: float = 0.2,
        default_delta: float = 0.05,
    ) -> None:
        self.session = session
        self.use_cache = use_cache
        self.default_epsilon = default_epsilon
        self.default_delta = default_delta
        self.predictor = CostPredictor()

    @property
    def pdb(self) -> ProbabilisticDatabase:
        return self.session.pdb

    # -- public entry ---------------------------------------------------------

    def evaluate(
        self,
        query: str,
        *,
        method: str = "ladder",
        deadline_s: Optional[float] = None,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        scenario: Optional[ConditionedScenario] = None,
        scenario_id: Optional[str] = None,
    ) -> RungAnswer:
        """Answer *query*, naming the rung and the guarantee it carries.

        ``method="ladder"`` walks the degradation ladder under
        *deadline_s*; any engine route name evaluates that route directly
        (still reporting rung/guarantee uniformly). With *scenario* the
        answer is ``P(Q | Γ)`` through the conditioned rungs instead.
        """
        start = time.perf_counter()
        eps = epsilon if epsilon is not None else self.default_epsilon
        dlt = delta if delta is not None else self.default_delta
        if scenario is not None:
            answer = self._conditioned(
                query, scenario, scenario_id, start, deadline_s, eps, dlt
            )
            return self._finish(answer, start, deadline_s)
        if method != "ladder":
            answer = self._direct(query, Method(method))
            return self._finish(answer, start, deadline_s)
        qfp = query_fingerprint(query)

        exact = self._try_exact(query, qfp, start, deadline_s)
        if exact is not None:
            return self._finish(exact, start, deadline_s)
        bounded = self._try_bounds(query, qfp, start, deadline_s)
        if bounded is not None:
            return self._finish(bounded, start, deadline_s)
        sampled = self._sampled(query, qfp, eps, dlt)
        return self._finish(sampled, start, deadline_s)

    # -- plumbing -------------------------------------------------------------

    def _finish(
        self, answer: RungAnswer, start: float, deadline_s: Optional[float]
    ) -> RungAnswer:
        elapsed = time.perf_counter() - start
        exceeded = deadline_s is not None and elapsed > deadline_s
        return replace(answer, elapsed_s=elapsed, deadline_exceeded=exceeded)

    def _remaining(self, start: float, deadline_s: Optional[float]) -> Optional[float]:
        if deadline_s is None:
            return None
        return deadline_s - (time.perf_counter() - start)

    def _fits(self, predicted: Optional[float], remaining: Optional[float]) -> bool:
        """Whether a rung with *predicted* cost fits the *remaining* budget."""
        if remaining is None:
            return True
        if remaining <= 0.0:
            return False
        return predicted is None or predicted <= remaining

    def _parse(self, query: str, qfp: str) -> Any:
        if self.use_cache:
            return self.session._parse_cached(query, qfp)
        return self.pdb.parse_query(query)

    def _query_answer(self, query: str, method: Method) -> QueryAnswer:
        if self.use_cache:
            return self.session.query(query, method)
        return self.pdb.probability(query, method)

    def _direct(self, query: str, method: Method) -> RungAnswer:
        answer = self._query_answer(query, method)
        if answer.exact:
            rung, guarantee = "exact", "exact probability (no approximation)"
        elif answer.method is Method.KARP_LUBY:
            rung = "sampled"
            guarantee = (
                f"relative error ≤ {self.pdb.mc_epsilon} with probability "
                f"≥ {1 - self.pdb.mc_delta} (Karp–Luby FPRAS, seeded)"
            )
        else:
            rung = "sampled"
            guarantee = (
                f"additive error ≤ {self.pdb.mc_epsilon} with probability "
                f"≥ {1 - self.pdb.mc_delta} (Monte Carlo, seeded)"
            )
        return RungAnswer(
            rung=rung,
            probability=answer.probability,
            guarantee=guarantee,
            exact=answer.exact,
            method=answer.method.value,
            detail=answer.detail,
            cache_hit=bool(answer.stats and answer.stats.cache_hit),
        )

    # -- conditioned rungs ----------------------------------------------------

    def _conditioned(
        self,
        query: str,
        scenario: ConditionedScenario,
        scenario_id: Optional[str],
        start: float,
        deadline_s: Optional[float],
        epsilon: float,
        delta: float,
    ) -> RungAnswer:
        """``P(Q | Γ)``: exact on the conditioned circuit, else Γ-rejection KL.

        Answers are cached under the scenario's content address (database
        fingerprint, Γ fingerprint, what-if evidence), so cache entries
        are invalidated by construction exactly like unconditioned ones.
        """
        qfp = query_fingerprint(query)
        skey = "|".join(
            (
                scenario.db_fingerprint,
                scenario.constraints.fingerprint(),
                scenario.forced_fingerprint(),
            )
        )
        pfp = f"{qfp}|{skey}"  # predictor key: costs are per (query, scenario)
        exact_key = ("ladder", skey, qfp, "cond-exact")
        if self.use_cache:
            cached = self.session.cache.get(exact_key)
            if cached is not None:
                assert isinstance(cached, RungAnswer)
                return replace(cached, cache_hit=True)
        # Exact: gate on the grounded lineage size like the DPLL rung (Γ
        # itself already counted at install; the gate bounds Q's side).
        fits_exact = (
            scenario.grounded_size(query) <= self.pdb.exact_lineage_limit
            and self._fits(
                self.predictor.predict(pfp, "cond-exact"),
                self._remaining(start, deadline_s),
            )
        )
        if fits_exact:
            attempt = time.perf_counter()
            answer = self._conditioned_rung(scenario.posterior(query), scenario_id)
            self.predictor.observe(pfp, "cond-exact", time.perf_counter() - attempt)
            if self.use_cache:
                self.session.cache.put(exact_key, answer)
            return answer
        sampled_key = (
            "ladder", skey, qfp, "cond-sampled", epsilon, delta, self.pdb.seed,
        )
        if self.use_cache:
            cached = self.session.cache.get(sampled_key)
            if cached is not None:
                assert isinstance(cached, RungAnswer)
                return replace(cached, cache_hit=True)
        attempt = time.perf_counter()
        try:
            conditioned = scenario.sample_posterior(
                query, epsilon=epsilon, delta=delta, rng=self.pdb.rng()
            )
        except FormSizeExceeded:
            # Floor: the DNF is too large to sample over, so pay for the
            # exact count however long it takes (flagged by _finish when
            # it overruns; the predictor learns the observed cost).
            answer = self._conditioned_rung(scenario.posterior(query), scenario_id)
            self.predictor.observe(pfp, "cond-exact", time.perf_counter() - attempt)
            if self.use_cache:
                self.session.cache.put(exact_key, answer)
            return answer
        answer = self._conditioned_rung(conditioned, scenario_id)
        self.predictor.observe(pfp, "cond-sampled", time.perf_counter() - attempt)
        if self.use_cache:
            self.session.cache.put(sampled_key, answer)
        return answer

    def _conditioned_rung(
        self, answer: ConditionedAnswer, scenario_id: Optional[str]
    ) -> RungAnswer:
        return RungAnswer(
            rung="exact" if answer.exact else "sampled",
            probability=answer.probability,
            guarantee=answer.guarantee,
            exact=answer.exact,
            method=answer.method,
            detail=answer.detail,
            epsilon=answer.epsilon,
            delta=answer.delta,
            samples=answer.samples,
            scenario=scenario_id,
            gamma_probability=answer.gamma_probability,
        )

    # -- rung 1: exact --------------------------------------------------------

    def _try_exact(
        self, query: str, qfp: str, start: float, deadline_s: Optional[float]
    ) -> Optional[RungAnswer]:
        # The polynomial route the query's structure admits: AUTO's decision.
        # Only the lifted rules can still get stuck, which history remembers.
        parsed = self._parse(query, qfp)
        self.pdb.check_arities(parsed)
        route, reason = self.pdb.structural_route(parsed)
        if route is not None and not self.predictor.known_inapplicable(qfp, route.value):
            remaining = self._remaining(start, deadline_s)
            if self._fits(self.predictor.predict(qfp, route.value), remaining):
                attempt = time.perf_counter()
                try:
                    answer = self._query_answer(query, route)
                except (NonLiftableError, UnsupportedQueryError):
                    self.predictor.mark_inapplicable(qfp, route.value)
                else:
                    self.predictor.observe(qfp, route.value, time.perf_counter() - attempt)
                    return self._exact_answer(answer)
        # Grounded DPLL: exponential worst case; gate on the lineage size
        # (predicted) and on observed history (actual overruns learned).
        lineage = (
            self.session.lineage(query) if self.use_cache else self.pdb._lineage(parsed)
        )
        variable_count = int(getattr(lineage, "variable_count", 0))
        if variable_count > self.pdb.exact_lineage_limit:
            return None  # predicted overrun: lineage too large for exact
        remaining = self._remaining(start, deadline_s)
        if not self._fits(self.predictor.predict(qfp, "dpll"), remaining):
            return None
        attempt = time.perf_counter()
        answer = self._query_answer(query, Method.DPLL)
        self.predictor.observe(qfp, "dpll", time.perf_counter() - attempt)
        if route is None:  # say why no polynomial route was tried
            answer = replace(answer, detail=f"{answer.detail} ({reason})")
        return self._exact_answer(answer)

    def _exact_answer(self, answer: QueryAnswer) -> RungAnswer:
        return RungAnswer(
            rung="exact",
            probability=answer.probability,
            guarantee="exact probability (no approximation)",
            exact=True,
            method=answer.method.value,
            detail=answer.detail,
            cache_hit=bool(answer.stats and answer.stats.cache_hit),
        )

    # -- rung 2: dissociation bounds ------------------------------------------

    def _try_bounds(
        self, query: str, qfp: str, start: float, deadline_s: Optional[float]
    ) -> Optional[RungAnswer]:
        if self.predictor.known_inapplicable(qfp, "bounds"):
            return None
        remaining = self._remaining(start, deadline_s)
        predicted = self.predictor.predict(qfp, "bounds")
        if remaining is not None and not self._fits(predicted, remaining):
            return None
        parsed = self._parse(query, qfp)
        if not isinstance(parsed, ConjunctiveQuery) or parsed.has_self_joins():
            self.predictor.mark_inapplicable(qfp, "bounds")
            return None
        cache_key = (
            "ladder",
            self.session.tid.fingerprint(),
            qfp,
            "bounds",
            self.pdb.backend,
        )
        if self.use_cache:
            cached = self.session.cache.get(cache_key)
            if cached is not None:
                assert isinstance(cached, RungAnswer)
                return replace(cached, cache_hit=True)
        from ..plans.bounds import extensional_bounds

        attempt = time.perf_counter()
        try:
            result = extensional_bounds(parsed, self.pdb.tid)
        except (ValueError, RuntimeError):
            self.predictor.mark_inapplicable(qfp, "bounds")
            return None
        self.predictor.observe(qfp, "bounds", time.perf_counter() - attempt)
        check_bounds(result.lower, result.upper, context="ladder bounds rung")
        midpoint = 0.5 * (result.lower + result.upper)
        answer = RungAnswer(
            rung="bounds",
            probability=midpoint,
            guarantee=(
                f"{result.lower:.6g} ≤ P ≤ {result.upper:.6g} "
                "(Theorem 6.1 dissociation sandwich; midpoint reported, "
                f"absolute error ≤ {result.width / 2:.6g})"
            ),
            exact=False,
            method="dissociation-bounds",
            detail=(
                f"min over {result.plan_count} minimal dissociation plans "
                "(upper on D, lower on rescaled D₁)"
            ),
            lower=result.lower,
            upper=result.upper,
        )
        if self.use_cache:
            self.session.cache.put(cache_key, answer)
        return answer

    # -- rung 3: seeded sampling ----------------------------------------------

    def _sampled(
        self, query: str, qfp: str, epsilon: float, delta: float
    ) -> RungAnswer:
        cache_key = (
            "ladder",
            self.session.tid.fingerprint(),
            qfp,
            "sampled",
            epsilon,
            delta,
            self.pdb.seed,
        )
        if self.use_cache:
            cached = self.session.cache.get(cache_key)
            if cached is not None:
                assert isinstance(cached, RungAnswer)
                return replace(cached, cache_hit=True)
        lineage = self.session.lineage(query) if self.use_cache else None
        if lineage is None:
            parsed = self.pdb.parse_query(query)
            lineage = self.pdb._lineage(parsed)
        attempt = time.perf_counter()
        try:
            clauses = to_dnf(lineage.expr)  # type: ignore[attr-defined]
        except FormSizeExceeded:
            estimate = monte_carlo_wmc(
                lineage.expr,  # type: ignore[attr-defined]
                lineage.probabilities(),  # type: ignore[attr-defined]
                epsilon=epsilon,
                delta=delta,
                rng=self.pdb.rng(),
            )
            answer = RungAnswer(
                rung="sampled",
                probability=estimate.estimate,
                guarantee=(
                    f"additive error ≤ {epsilon} with probability "
                    f"≥ {1 - delta} (naive Monte Carlo, seeded)"
                ),
                exact=False,
                method=Method.MONTE_CARLO.value,
                detail=f"{estimate.samples} seeded samples (DNF too large)",
                epsilon=epsilon,
                delta=delta,
                samples=estimate.samples,
            )
        else:
            estimate_kl = karp_luby(
                clauses,
                lineage.probabilities(),  # type: ignore[attr-defined]
                epsilon=epsilon,
                delta=delta,
                rng=self.pdb.rng(),
            )
            answer = RungAnswer(
                rung="sampled",
                probability=estimate_kl.estimate,
                guarantee=(
                    f"relative error ≤ {epsilon} with probability "
                    f"≥ {1 - delta} (Karp–Luby FPRAS, seeded)"
                ),
                exact=False,
                method=Method.KARP_LUBY.value,
                detail=f"{estimate_kl.samples} seeded union-space samples",
                epsilon=epsilon,
                delta=delta,
                samples=estimate_kl.samples,
            )
        self.predictor.observe(qfp, "sampled", time.perf_counter() - attempt)
        if self.use_cache:
            self.session.cache.put(cache_key, answer)
        return answer
