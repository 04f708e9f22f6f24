"""E15 — the hash-consed Boolean kernel vs the legacy tuple-key path.

The kernel (`repro.booleans.kernel`) interns every Boolean node, caches
per-node variable sets, and memoizes cofactors process-wide. This benchmark
quantifies the win on the two grounded workloads that exercise it hardest:

* **repeated-cofactor DPLL counting** (the E2 hardness workload, re-counted
  under drifting tuple probabilities as a serving engine would): the
  interned counter keys its cache on int node ids and reuses memoized
  Shannon cofactors, while the *legacy* path — a faithful replica of the
  pre-kernel implementation, kept here as the baseline — hashes O(|subtree|)
  structural tuples and rebuilds every cofactor from scratch. Asserted:
  **≥ 3× speedup**, probabilities equal to full float precision.
* **repeated OBDD compilation** (the E8 workload under repeat traffic): the
  manager's `from_expr` memo keyed by interned node id makes recompiling a
  formula it has seen O(1).

A third table shows allocation behaviour: re-grounding the same query
allocates **zero** new nodes — every construction is served by the unique
table, which is the "lower peak node allocations" claim made concrete.

Run directly for tables (``--quick`` for the CI smoke variant), or via
pytest for the assertions.
"""

import argparse
import time

from repro.booleans.expr import (
    B_FALSE,
    B_TRUE,
    BAnd,
    BExpr,
    BFalse,
    BNot,
    BOr,
    BTrue,
    BVar,
    bnot,
)
from repro.booleans.kernel import kernel_statistics, reset_kernel
from repro.kc.obdd import FALSE_NODE, TRUE_NODE, OBDD
from repro.lineage.build import lineage_of_cq
from repro.logic.cq import parse_cq
from repro.wmc.dpll import DPLLCounter
from repro.workloads.generators import full_tid

from tables import print_table

H0_CQ = parse_cq("R(x), S(x,y), T(y)")

#: Machine-readable results of the last ``main()`` run, merged into
#: ``BENCH_results.json`` by ``run_all_tables.py``.
BENCH_RESULTS: dict = {}


# -- the legacy (pre-kernel) path, replicated faithfully ----------------------
#
# These reproduce the seed implementations' behaviour: conditioning rebuilds
# every subtree with a memo keyed by nested structural tuples, variable sets
# and branching frequencies are recomputed by walking, and the DPLL cache
# hashes full structural keys. The smart constructors are shared, so both
# paths canonicalize identically and must agree bit-for-bit.


def legacy_condition(expr: BExpr, assignment: dict) -> BExpr:
    memo: dict[tuple, BExpr] = {}

    def walk(node: BExpr) -> BExpr:
        key = node.key()
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(node, (BTrue, BFalse)):
            result: BExpr = node
        elif isinstance(node, BVar):
            if node.index in assignment:
                result = B_TRUE if assignment[node.index] else B_FALSE
            else:
                result = node
        elif isinstance(node, BNot):
            result = bnot(walk(node.sub))
        elif isinstance(node, BAnd):
            result = BAnd.of(walk(p) for p in node.parts)
        else:
            result = BOr.of(walk(p) for p in node.parts)
        memo[key] = result
        return result

    return walk(expr)


def legacy_variables(expr: BExpr) -> frozenset:
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BVar):
            out.add(node.index)
        else:
            stack.extend(node.children())
    return frozenset(out)


def legacy_independent_factors(expr: BExpr) -> list:
    if not isinstance(expr, (BAnd, BOr)):
        return [expr]
    parts = expr.parts
    part_vars = [legacy_variables(p) for p in parts]
    n = len(parts)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index_of_var: dict[int, int] = {}
    for i, pv in enumerate(part_vars):
        for v in pv:
            j = index_of_var.get(v)
            if j is None:
                index_of_var[v] = i
            else:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups: dict[int, list] = {}
    for i, part in enumerate(parts):
        groups.setdefault(find(i), []).append(part)
    if len(groups) == 1:
        return [expr]
    builder = BAnd.of if isinstance(expr, BAnd) else BOr.of
    return [builder(group) for group in groups.values()]


def legacy_most_frequent_variable(expr: BExpr) -> int:
    counts: dict[int, int] = {}
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BVar):
            counts[node.index] = counts.get(node.index, 0) + 1
        else:
            stack.extend(node.children())
    return max(counts, key=lambda v: (counts[v], -v))


def legacy_dpll(expr: BExpr, probabilities: dict) -> float:
    """The seed DPLL counter: tuple-key cache, rebuild-everything cofactors."""
    cache: dict[tuple, float] = {}

    def count(formula: BExpr) -> float:
        if isinstance(formula, BTrue):
            return 1.0
        if isinstance(formula, BFalse):
            return 0.0
        key = formula.key()
        cached = cache.get(key)
        if cached is not None:
            return cached
        factors = (
            legacy_independent_factors(formula)
            if isinstance(formula, BAnd)
            else [formula]
        )
        if len(factors) > 1:
            probability = 1.0
            for factor in factors:
                probability *= count(factor)
        else:
            var = legacy_most_frequent_variable(formula)
            low = legacy_condition(formula, {var: False})
            high = legacy_condition(formula, {var: True})
            p = probabilities[var]
            probability = (1.0 - p) * count(low) + p * count(high)
        cache[key] = probability
        return probability

    return count(expr)


def legacy_from_expr(manager: OBDD, expr: BExpr) -> int:
    """The seed OBDD compiler: walks the expression on every call."""
    if isinstance(expr, BTrue):
        return TRUE_NODE
    if isinstance(expr, BFalse):
        return FALSE_NODE
    if isinstance(expr, BVar):
        return manager.variable(expr.index)
    if isinstance(expr, BNot):
        return manager.negate(legacy_from_expr(manager, expr.sub))
    if isinstance(expr, BAnd):
        result = TRUE_NODE
        for part in expr.parts:
            result = manager.conjoin(result, legacy_from_expr(manager, part))
            if result == FALSE_NODE:
                return FALSE_NODE
        return result
    result = FALSE_NODE
    for part in expr.parts:
        result = manager.disjoin(result, legacy_from_expr(manager, part))
        if result == TRUE_NODE:
            return TRUE_NODE
    return result


# -- workloads ----------------------------------------------------------------


def _drifting_maps(base: dict, rounds: int) -> list[dict]:
    """Tuple probabilities drifting over *rounds* serving ticks."""
    return [
        {v: min(0.95, p + 0.01 * r) for v, p in base.items()}
        for r in range(rounds)
    ]


def dpll_speedup(domain_size: int = 4, rounds: int = 8):
    """Repeated-cofactor DPLL counting: interned kernel vs legacy tuple keys.

    Returns ``(rows, ratio)``; asserts bit-for-bit agreement internally.
    """
    db = full_tid(11, domain_size)
    lineage = lineage_of_cq(H0_CQ, db)
    maps = _drifting_maps(lineage.probabilities(), rounds)

    # The kernel loop with the independent-or off: the path this bench
    # measures, and the only one that branches as the legacy counter did
    # (positive-DNF lineages are otherwise counted on clause bitmasks).
    before = kernel_statistics()
    start = time.perf_counter()
    interned = [
        DPLLCounter()._count_formula(lineage.expr, m, or_split=False)[0]
        for m in maps
    ]
    interned_time = time.perf_counter() - start
    after = kernel_statistics()

    start = time.perf_counter()
    legacy = [legacy_dpll(lineage.expr, m) for m in maps]
    legacy_time = time.perf_counter() - start

    assert interned == legacy, (
        "interned kernel changed DPLL probabilities"
    )
    ratio = legacy_time / interned_time if interned_time > 0 else float("inf")
    memo_hits = after.cofactor_hits - before.cofactor_hits
    rows = [
        (
            "legacy (tuple keys, rebuild cofactors)",
            f"{legacy_time:.4f}s",
            "-",
            f"{legacy[0]:.6f}",
        ),
        (
            "interned kernel (nid keys, memo cofactors)",
            f"{interned_time:.4f}s",
            f"{memo_hits}",
            f"{interned[0]:.6f}",
        ),
        ("speedup", f"{ratio:.1f}x", "-", "-"),
    ]
    return rows, ratio


def obdd_recompile(domain_size: int = 4, repeats: int = 20):
    """Repeat-traffic OBDD compilation of the same interned lineage."""
    db = full_tid(11, domain_size)
    lineage = lineage_of_cq(H0_CQ, db)
    expr = lineage.expr
    order = tuple(sorted(expr.variables()))

    legacy_manager = OBDD(order)
    start = time.perf_counter()
    for _ in range(repeats):
        legacy_root = legacy_from_expr(legacy_manager, expr)
    legacy_time = time.perf_counter() - start

    interned_manager = OBDD(order)
    start = time.perf_counter()
    for _ in range(repeats):
        interned_root = interned_manager.from_expr(expr)
    interned_time = time.perf_counter() - start

    assert legacy_manager.size(legacy_root) == interned_manager.size(interned_root)
    probabilities = lineage.probabilities()
    assert legacy_manager.wmc(legacy_root, probabilities) == interned_manager.wmc(
        interned_root, probabilities
    )
    ratio = legacy_time / interned_time if interned_time > 0 else float("inf")
    rows = [
        ("legacy from_expr (walk every call)", f"{legacy_time:.4f}s"),
        ("interned from_expr (nid memo)", f"{interned_time:.4f}s"),
        ("speedup", f"{ratio:.1f}x"),
    ]
    return rows, ratio


def allocation_behaviour(domain_size: int = 4):
    """Node allocations when grounding the same query twice.

    ``requested`` counts every node construction the grounding asked for;
    ``allocated`` counts the ones that actually created a new object. The
    second grounding is served entirely by the unique table.

    The kernel is reset first so the numbers reflect a cold start even when
    earlier workloads (or other benchmark modules in a ``run_all_tables``
    pass) already populated the process-wide unique table. Node ids stay
    monotonic across resets, so this cannot alias any live cache entry.
    """
    reset_kernel()
    rows = []
    allocated = []
    for label in ("first grounding", "second grounding"):
        before = kernel_statistics()
        lineage = lineage_of_cq(H0_CQ, full_tid(11, domain_size))
        after = kernel_statistics()
        new_nodes = after.intern_misses - before.intern_misses
        requested = new_nodes + (after.intern_hits - before.intern_hits)
        allocated.append(new_nodes)
        rows.append(
            (label, lineage.variable_count, requested, new_nodes, after.unique_nodes)
        )
    return rows, allocated


# -- assertions (pytest / CI smoke) -------------------------------------------


def test_e15_kernel_speedup_at_least_3x():
    _, ratio = dpll_speedup(domain_size=4, rounds=8)
    assert ratio >= 3.0, f"interned kernel only {ratio:.1f}x faster than legacy path"


def test_e15_obdd_recompile_faster():
    _, ratio = obdd_recompile(domain_size=3, repeats=10)
    assert ratio > 1.0, f"memoized from_expr not faster ({ratio:.1f}x)"


def test_e15_regrounding_allocates_nothing():
    _, allocated = allocation_behaviour(domain_size=3)
    assert allocated[0] > 0, "cold grounding should allocate fresh nodes"
    assert allocated[1] == 0, (
        f"re-grounding allocated {allocated[1]} nodes; unique table should serve all"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller domains for CI smoke runs"
    )
    args = parser.parse_args()
    n = 3 if args.quick else 4
    rounds = 8
    repeats = 10 if args.quick else 20

    rows, ratio = dpll_speedup(domain_size=n, rounds=rounds)
    print_table(
        f"E15a: repeated-cofactor DPLL on H0 (n={n}, {rounds} drifting weight maps)",
        ["path", "time", "cofactor-memo hits", "p (round 0)"],
        rows,
    )
    assert ratio >= 3.0, f"interned kernel only {ratio:.1f}x faster than legacy path"
    BENCH_RESULTS["e15_dpll_kernel_speedup"] = round(ratio, 2)

    rows, _ = obdd_recompile(domain_size=n, repeats=repeats)
    print_table(
        f"E15b: OBDD recompilation of one lineage (n={n}, {repeats} repeats)",
        ["path", "time"],
        rows,
    )

    rows, allocated = allocation_behaviour(domain_size=n)
    print_table(
        f"E15c: node allocations when grounding H0 twice (n={n})",
        ["grounding", "lineage vars", "requested", "allocated", "table size"],
        rows,
    )
    assert allocated[1] == 0, "re-grounding should allocate zero nodes"


if __name__ == "__main__":
    main()
