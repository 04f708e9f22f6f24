"""A DPLL-style exact weighted model counter with caching and components.

Implements the primitives of Sec. 7:

* rule (11), the Shannon expansion
  ``p(F) = p(F[X:=0])·(1-p(X)) + p(F[X:=1])·p(X)``;
* rule (12), independent components ``p(F₁ ∧ F₂) = p(F₁)·p(F₂)`` when the
  conjuncts share no variables, and its dual, the independent-or
  ``p(F₁ ∨ F₂) = 1 − (1−p(F₁))·(1−p(F₂))``, summed in log space
  (:func:`independent_or`) so that many tiny disjuncts do not round to 0;
* a cache of previously computed probabilities.

``run(..., budget=B)`` raises :class:`DPLLBudgetExceeded` on call B + 1, so
a caller can cap an exact count at the work of its fallback sampler.

Following Huang and Darwiche, the *trace* of the search is materialized as a
decision-DNNF in a :class:`repro.kc.circuits.Circuit`: Shannon expansions
become decision nodes, component splits become independent-∧ nodes, and the
cache makes the trace a DAG. The size of that circuit is the quantity
bounded below by Theorem 7.1(ii). The independent-or has no node in that
language, so it is applied only when no trace is recorded.

A **positive DNF** (every CQ and UCQ lineage) is counted on a per-run clause
set, as in Koch–Olteanu's confidence computation (arXiv:0803.2212): a clause
is an int bitmask, ``X:=0`` drops the clauses with X, ``X:=1`` clears X's bit
and drops what became subsumed, the cache is keyed by the set of masks, and
variable-disjoint groups are found by union-find. Its trace has decision
nodes only; without the or-split it branches inside the narrowest group
first, so the trace of F₁ ∨ F₂ grows as |F₁| + |F₂|. Anything else runs the
general loop over hash-consed formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Mapping, Optional, Sequence

from ..booleans.expr import B_FALSE, B_TRUE, BAnd, BExpr, BOr, BVar
from ..booleans.kernel import kernel_statistics
from ..booleans.ops import cofactors, independent_factors, most_frequent_variable
from ..kc.circuits import FALSE_LEAF, TRUE_LEAF, Circuit
from ..sanitize import check_circuit


class DPLLBudgetExceeded(RuntimeError):
    """A count passed its call budget. The counter raises it with the calls
    made; ``ProbabilisticDatabase`` re-raises it naming the whole budget."""


@dataclass
class DPLLStatistics:
    """Counters describing one run of the counter.

    ``path`` is ``"clause"`` (positive-DNF bitmasks) or ``"general"``.
    ``kernel_intern_hits`` is the delta of the hash-consing kernel's
    *thread-local* intern counter over the run: a run executes on one
    thread, so it counts this query's interning alone even while other
    serving threads evaluate other queries concurrently.
    ``kernel_unique_nodes`` is the process-wide unique-table size at the
    end of the run. The kernel keeps no cofactor memo, so
    ``cofactor_memo_hits`` / ``cofactor_memo_misses`` always read 0; they
    stay because ``perfbench/tracing.py`` reads them.
    """

    path: str = "general"
    calls: int = 0
    cache_hits: int = 0
    shannon_expansions: int = 0
    component_splits: int = 0
    or_splits: int = 0
    kernel_unique_nodes: int = 0
    kernel_intern_hits: int = 0
    cofactor_memo_hits: int = 0
    cofactor_memo_misses: int = 0


@dataclass
class DPLLResult:
    """Probability plus the search trace and statistics."""

    probability: float
    statistics: DPLLStatistics
    circuit: Optional[Circuit] = None

    @property
    def trace_size(self) -> int:
        """Node count of the decision-DNNF trace (0 when not recorded)."""
        return self.circuit.size() if self.circuit is not None else 0


def independent_or(values: Sequence[float]) -> float:
    """``1 - ∏(1 - v)``, the probability of a disjunction of independent
    events, in log space.

    The product form rounds ``1 - v`` to 1.0 for every v below 2⁻⁵³, so a
    disjunction of many tiny probabilities would come out 0.0; summing
    ``log1p(-v)`` keeps them. ``log1p(-1.0)`` raises, and any certain
    disjunct makes the disjunction certain anyway.
    """
    logs = []
    for v in values:
        if v >= 1.0:
            return 1.0
        logs.append(math.log1p(-v))
    return -math.expm1(math.fsum(logs))


def positive_dnf_clauses(expr: BExpr) -> Optional[list[list[int]]]:
    """The clauses of *expr* as variable lists when it is a positive DNF (a
    variable, a conjunction of variables, or a disjunction of those; TRUE is
    the empty clause and FALSE no clause)."""
    if expr is B_FALSE:
        return []
    if expr is B_TRUE:
        return [[]]
    clauses: list[list[int]] = []
    for part in expr.parts if isinstance(expr, BOr) else (expr,):
        literals = part.parts if isinstance(part, BAnd) else (part,)
        clause = [p.index for p in literals if isinstance(p, BVar)]
        if len(clause) != len(literals):
            return None
        clauses.append(clause)
    return clauses


def _or_components(clauses: frozenset[int]) -> list[frozenset[int]]:
    """Variable-disjoint clause groups, by union-find over the bits set in
    more than one clause (no other bit can connect two clauses)."""
    seen = shared = 0
    for clause in clauses:
        shared |= seen & clause
        seen |= clause
    parent: dict[int, int] = {}

    def find(bit: int) -> int:
        while parent.setdefault(bit, bit) != bit:
            parent[bit] = bit = parent[parent[bit]]  # path halving
        return bit

    for clause in clauses:
        rest = clause & shared
        root = find(rest & -rest) if rest else 0
        while rest := rest & (rest - 1):  # drop the lowest bit, join the next
            parent[find(rest & -rest)] = root
    groups: dict[int, list[int]] = {}
    for clause in clauses:  # a clause sharing no bit is a group of its own
        key = clause & shared
        groups.setdefault(find(key & -key) if key else clause, []).append(clause)
    return [frozenset(group) for group in groups.values()]


def _bit_levels(clauses: frozenset[int]) -> list[int]:
    """``levels[k]`` holds the bits set in more than k clauses (so
    ``levels[-1]`` the most frequent ones), counted bit-parallel."""
    levels: list[int] = []
    for carry in clauses:
        for k, level in enumerate(levels):
            levels[k], carry = level | carry, level & carry
            if not carry:
                break
        else:
            levels.append(carry)
    return levels


@dataclass
class DPLLCounter:
    """Configurable DPLL-style counter; see module docstring."""

    use_cache: bool = True
    use_components: bool = True
    variable_order: Optional[Sequence[int]] = None
    record_trace: bool = False

    def run(
        self, expr: BExpr, probabilities: Mapping[int, float], budget: float = math.inf
    ) -> DPLLResult:
        """Compute P(expr) under independent tuple probabilities."""
        statistics = DPLLStatistics()
        kernel_before = kernel_statistics()
        circuit = Circuit() if self.record_trace else None
        dnf = positive_dnf_clauses(expr)
        if dnf is not None:
            statistics.path = "clause"
            probability, root = self._count_clauses(dnf, probabilities, statistics, circuit, budget)
        else:
            probability, root = self._count_formula(
                expr, probabilities, circuit is None, statistics, circuit, budget
            )
        if circuit is not None:
            circuit.root = root
            # Sanitizer (no-op unless REPRO_SANITIZE=1): the recorded trace
            # must lie in its target language — FBDD without the component
            # rule, decision-DNNF with it.
            check_circuit(
                circuit, "decision-dnnf" if self.use_components else "fbdd"
            )
        kernel_after = kernel_statistics()
        statistics.kernel_unique_nodes = kernel_after.unique_nodes
        statistics.kernel_intern_hits = (
            kernel_after.intern_hits - kernel_before.intern_hits
        )
        return DPLLResult(probability, statistics, circuit)

    def _rank(self) -> Callable[[int], int]:
        """Sort key of variables: ``variable_order`` first, then by index."""
        rank = {v: i for i, v in enumerate(self.variable_order or ())}
        return lambda v: rank.get(v, len(rank) + v)

    def _count_clauses(
        self, dnf: list[list[int]], probabilities: Mapping[int, float],
        statistics: DPLLStatistics, circuit: Optional[Circuit], budget: float,
    ) -> tuple[float, int]:
        """The positive-DNF path. Bit i is the i-th variable in branching
        priority: a fixed order branches on the lowest bit, and frequency
        ties go to the lowest index, as in the general loop."""
        variables = sorted({v for clause in dnf for v in clause}, key=self._rank())
        bit_of = {v: 1 << i for i, v in enumerate(variables)}
        weights = [probabilities[v] for v in variables]
        ordered = self.variable_order is not None
        or_split = circuit is None and self.use_components
        use_cache = self.use_cache
        cache: dict[frozenset[int], tuple[float, int]] = {}

        def count(clauses: frozenset[int], connected: bool = False) -> tuple[float, int]:
            statistics.calls += 1
            if statistics.calls > budget:
                raise DPLLBudgetExceeded(statistics.calls)
            if not clauses:
                return 0.0, FALSE_LEAF
            if 0 in clauses:
                return 1.0, TRUE_LEAF
            if len(clauses) == 1:  # a conjunction: a chain of decisions
                (rest,) = clauses
                probability, node = 1.0, TRUE_LEAF
                while rest:
                    i = rest.bit_length() - 1
                    rest ^= 1 << i
                    probability *= weights[i]
                    if circuit is not None:
                        node = circuit.decision(variables[i], FALSE_LEAF, node)
                return probability, node
            if use_cache:
                cached = cache.get(clauses)
                if cached is not None:
                    statistics.cache_hits += 1
                    return cached

            result: tuple[float, int]
            if or_split and not connected and len(groups := _or_components(clauses)) > 1:
                statistics.or_splits += 1
                parts = [count(group, connected=True)[0] for group in groups]
                result = (independent_or(parts), TRUE_LEAF)
            else:
                group = clauses
                if not (or_split or ordered):  # finish the narrowest group first
                    group = min(_or_components(clauses), key=lambda g: reduce(or_, g).bit_count())
                top = _bit_levels(group)[0 if ordered else -1]  # all bits, or the most frequent
                bit = top & -top
                i = bit.bit_length() - 1
                statistics.shannon_expansions += 1
                low = frozenset([c for c in clauses if not c & bit])
                shrunk = {c ^ bit for c in clauses if c & bit}
                if 0 not in shrunk:  # drop the clauses of low a shrunk one now subsumes
                    shrunk.update([d for d in low if all(r & d != r for r in shrunk)])
                p_low, node_low = count(low)
                p_high, node_high = count(frozenset(shrunk))
                node = TRUE_LEAF if circuit is None else circuit.decision(
                    variables[i], node_low, node_high
                )
                result = ((1.0 - weights[i]) * p_low + weights[i] * p_high, node)

            if use_cache:
                cache[clauses] = result
            return result

        return count(frozenset(reduce(or_, (bit_of[v] for v in clause), 0) for clause in dnf))

    def _count_formula(
        self, expr: BExpr, probabilities: Mapping[int, float], or_split: bool,
        statistics: Optional[DPLLStatistics] = None, circuit: Optional[Circuit] = None,
        budget: float = math.inf,
    ) -> tuple[float, int]:
        """The general loop over hash-consed formulas. ``or_split=False``
        branches exactly as the pre-kernel counter did, which is what the
        kernel's bit-for-bit regression test relies on."""
        stats = statistics if statistics is not None else DPLLStatistics()
        cache: dict[int, tuple[float, int]] = {}
        or_split = or_split and self.use_components
        ordered = self.variable_order is not None
        rank = self._rank()

        def count(formula: BExpr) -> tuple[float, int]:
            stats.calls += 1
            if stats.calls > budget:
                raise DPLLBudgetExceeded(stats.calls)
            if formula is B_TRUE:
                return 1.0, TRUE_LEAF
            if formula is B_FALSE:
                return 0.0, FALSE_LEAF
            key = formula.nid
            if self.use_cache:
                cached = cache.get(key)
                if cached is not None:
                    stats.cache_hits += 1
                    return cached

            result: tuple[float, int]
            factors = (
                independent_factors(formula)
                if isinstance(formula, BAnd) and self.use_components
                or isinstance(formula, BOr) and or_split
                else [formula]
            )
            if len(factors) > 1 and isinstance(formula, BAnd):
                stats.component_splits += 1
                probability = 1.0
                children = []
                for factor in factors:
                    p, node = count(factor)
                    probability *= p
                    children.append(node)
                node_id = circuit.conjoin(children) if circuit is not None else TRUE_LEAF
                result = (probability, node_id)
            elif len(factors) > 1:
                stats.or_splits += 1
                result = (independent_or([count(factor)[0] for factor in factors]), TRUE_LEAF)
            else:
                var = (min(formula.variables(), key=rank) if ordered
                       else most_frequent_variable(formula))
                stats.shannon_expansions += 1
                low, high = cofactors(formula, var)
                p_low, node_low = count(low)
                p_high, node_high = count(high)
                p = probabilities[var]
                probability = (1.0 - p) * p_low + p * p_high
                node_id = (
                    circuit.decision(var, node_low, node_high)
                    if circuit is not None
                    else TRUE_LEAF
                )
                result = (probability, node_id)

            if self.use_cache:
                cache[key] = result
            return result

        return count(expr)


def dpll_probability(
    expr: BExpr,
    probabilities: Mapping[int, float],
    use_cache: bool = True,
    use_components: bool = True,
    variable_order: Optional[Sequence[int]] = None,
) -> float:
    """Convenience wrapper returning just the probability."""
    counter = DPLLCounter(
        use_cache=use_cache,
        use_components=use_components,
        variable_order=variable_order,
    )
    return counter.run(expr, probabilities).probability


def compile_decision_dnnf(
    expr: BExpr,
    probabilities: Optional[Mapping[int, float]] = None,
    variable_order: Optional[Sequence[int]] = None,
) -> DPLLResult:
    """Compile *expr* into a decision-DNNF by recording the DPLL trace.

    The weights do not affect the trace shape (it depends only on the
    branching heuristic); they default to 1/2 so the result also reports
    the uniform-weight probability.
    """
    if probabilities is None:
        probabilities = {v: 0.5 for v in expr.variables()}
    counter = DPLLCounter(record_trace=True, variable_order=variable_order)
    return counter.run(expr, probabilities)


def compile_fbdd(
    expr: BExpr,
    probabilities: Optional[Mapping[int, float]] = None,
    variable_order: Optional[Sequence[int]] = None,
) -> DPLLResult:
    """Compile *expr* into an FBDD: the trace of DPLL *without* components.

    Per Huang–Darwiche, caching without the component rule yields a pure
    decision DAG — a Free Binary Decision Diagram. With a fixed
    ``variable_order`` the trace is an OBDD (possibly larger than the
    reduced one built by :mod:`repro.kc.obdd`, since the cache keys are
    formulas, not nodes).
    """
    if probabilities is None:
        probabilities = {v: 0.5 for v in expr.variables()}
    counter = DPLLCounter(
        record_trace=True, use_components=False, variable_order=variable_order
    )
    return counter.run(expr, probabilities)
