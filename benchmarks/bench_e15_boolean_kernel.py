"""E15 — the hash-consed Boolean kernel vs the legacy walk-every-call path.

The kernel (`repro.booleans.kernel`) interns every Boolean node and caches
per-node variable sets, so a node id is an O(1) cache key. This benchmark
quantifies that on repeat traffic:

* **repeated OBDD compilation** (the E8 workload under repeat traffic): the
  manager's `from_expr` memo keyed by interned node id makes recompiling a
  formula it has seen O(1), against a replica of the pre-kernel compiler
  that walks the expression on every call.

A second table shows allocation behaviour: re-grounding the same query
allocates **zero** new nodes — every construction is served by the unique
table, which is the "lower peak node allocations" claim made concrete.

(The DPLL-kernel row that timed the general loop under drifting weights is
gone with the kernel's cofactor memo; the bit-for-bit check of that loop
against the legacy counter lives in ``tests/test_kernel_property.py``.)

Run directly for tables (``--quick`` for the CI smoke variant), or via
pytest for the assertions.
"""

import argparse
import time

from repro.booleans.expr import BAnd, BExpr, BFalse, BNot, BTrue, BVar
from repro.booleans.kernel import kernel_statistics, reset_kernel
from repro.kc.obdd import FALSE_NODE, TRUE_NODE, OBDD
from repro.lineage.build import lineage_of_cq
from repro.logic.cq import parse_cq
from repro.workloads.generators import full_tid

from tables import print_table

H0_CQ = parse_cq("R(x), S(x,y), T(y)")

#: Machine-readable results of the last ``main()`` run, merged into
#: ``BENCH_results.json`` by ``run_all_tables.py``.
BENCH_RESULTS: dict = {}


# -- the legacy (pre-kernel) path, replicated faithfully ----------------------


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
    repeats = 10 if args.quick else 20

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
