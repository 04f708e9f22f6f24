"""E8 — Theorem 7.1(i): OBDD sizes for hierarchical vs non-hierarchical CQs.

Regenerates the size separation:
  (a) hierarchical R(x),S(x,y): OBDD linear in the lineage (with the
      hierarchy-derived order) — measured exactly = #tuples;
  (b) non-hierarchical H0-CQ: every order is large; we report the default
      order's size, the paper's (2ⁿ−1)/n lower bound, and (for tiny n) the
      exhaustive minimum over all orders.

Ablation (DESIGN.md): hierarchy order vs adversarial predicate-major order.
"""

import pytest

from repro.kc.obdd import compile_obdd
from repro.kc.orders import (
    exhaustive_minimum_size,
    hierarchical_order,
    predicate_major_order,
)
from repro.lineage.build import lineage_of_cq
from repro.logic.cq import parse_cq
from repro.workloads.generators import full_tid

from tables import print_table

SAFE = parse_cq("R(x), S(x,y)")
HARD = parse_cq("R(x), S(x,y), T(y)")


def hierarchical_rows(sizes=(2, 4, 6, 8, 10)):
    rows = []
    for n in sizes:
        db = full_tid(23, n, schema=(("R", 1), ("S", 2)))
        lineage = lineage_of_cq(SAFE, db)
        good = compile_obdd(lineage.expr, hierarchical_order(SAFE, lineage))
        bad = compile_obdd(lineage.expr, predicate_major_order(lineage))
        rows.append(
            (
                n,
                lineage.variable_count,
                good[0].circuit.size(good[1]),
                bad[0].circuit.size(bad[1]),
            )
        )
    return rows


def hard_rows(sizes=(2, 3, 4, 5, 6)):
    rows = []
    for n in sizes:
        db = full_tid(23, n)
        lineage = lineage_of_cq(HARD, db)
        manager, root = compile_obdd(lineage.expr)
        bound = (2 ** n - 1) / n
        exhaustive = (
            exhaustive_minimum_size(lineage.expr, sorted(lineage.expr.variables()))
            if n <= 2
            else "-"
        )
        rows.append(
            (n, lineage.variable_count, manager.circuit.size(root), f"{bound:.1f}", exhaustive)
        )
    return rows


def test_e08_hierarchical_linear_under_good_order():
    for n, variables, good, _ in hierarchical_rows(sizes=(2, 4, 6)):
        assert good <= variables + 2


def test_e08_bad_order_exponential_trend():
    rows = hierarchical_rows(sizes=(2, 4, 6))
    bad_sizes = [row[3] for row in rows]
    good_sizes = [row[2] for row in rows]
    # adversarial order grows strictly faster than the linear one
    assert bad_sizes[-1] / bad_sizes[0] > 2 * good_sizes[-1] / good_sizes[0]


def test_e08_hard_query_exceeds_paper_bound():
    for n, _, size, bound, _ in hard_rows(sizes=(2, 3, 4)):
        assert size >= float(bound)


def test_e08_exhaustive_minimum_still_large():
    db = full_tid(23, 2)
    lineage = lineage_of_cq(HARD, db)
    minimum = exhaustive_minimum_size(
        lineage.expr, sorted(lineage.expr.variables())
    )
    assert minimum >= (2 ** 2 - 1) / 2


@pytest.mark.benchmark(group="e08-obdd")
def test_e08_compile_hierarchical_good_order(benchmark):
    db = full_tid(23, 6, schema=(("R", 1), ("S", 2)))
    lineage = lineage_of_cq(SAFE, db)
    order = hierarchical_order(SAFE, lineage)

    def run():
        manager, root = compile_obdd(lineage.expr, order)
        return manager.circuit.size(root)

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="e08-obdd")
def test_e08_compile_nonhierarchical(benchmark):
    db = full_tid(23, 4)
    lineage = lineage_of_cq(HARD, db)

    def run():
        manager, root = compile_obdd(lineage.expr)
        return manager.circuit.size(root)

    assert benchmark(run) > 0


# Filled by main() for run_all_tables.py / BENCH_results.json.
BENCH_RESULTS = {}


def main():
    rows_easy = hierarchical_rows()
    rows_hard = hard_rows()
    print_table(
        "E8a: OBDD size, hierarchical R(x),S(x,y) (Thm 7.1(i)(a))",
        ["n", "lineage vars", "hierarchy order", "predicate-major order"],
        rows_easy,
    )
    print_table(
        "E8b: OBDD size, non-hierarchical H0-CQ (Thm 7.1(i)(b))",
        ["n", "lineage vars", "default order", "(2^n-1)/n bound", "exhaustive min"],
        rows_hard,
    )
    BENCH_RESULTS.update(
        {"hierarchical_max_n": rows_easy[-1][0], "hard_max_n": rows_hard[-1][0]}
    )


if __name__ == "__main__":
    main()
