"""E16 — columnar vs row-at-a-time execution of extensional safe plans.

The paper's Sec. 6 point is that safe queries run *inside* relational query
processing — so the engine should inherit relational-engine speed. The row
backend (`repro.plans.plan`) is a faithful tuple-at-a-time interpreter; the
columnar backend (`repro.plans.vectorized` over
`repro.relational.columnar`) executes the same plan trees as a handful of
numpy array passes: dictionary-encoded scans, sort/searchsorted joins, and
grouped log-space ⊕-aggregation.

This benchmark builds a ~10⁵-fact tuple-independent database, compiles the
safe plan for ``R(x), S(x,y)`` once, and serves it through both backends:

* **warm** columnar serving (encoded columns memoized per database
  version — the steady state of a query-serving engine) is asserted
  **≥ 10× faster** than the row backend (≥ 3× under ``--quick``);
* the **cold** columnar run (first query against a fresh database, paying
  the one-time dictionary encoding) is reported alongside;
* both backends are asserted to agree within **1e-9 absolute error**;
* the façade's ``Method.AUTO`` on the same query is asserted **within 1.5×**
  of the explicit ``Method.SAFE_PLAN`` call: AUTO must take the extensional
  route on a safe query (the lifted rules ground the separator over the
  whole domain in interpreted Python — seconds at this size).

Run directly for tables (``--quick`` for the CI smoke variant), or via
pytest for the assertions. ``BENCH_RESULTS`` carries the machine-readable
ratios that ``run_all_tables.py`` folds into ``BENCH_results.json``.
"""

import argparse
import random
import time

from repro.core.pdb import Method, ProbabilisticDatabase
from repro.core.tid import TupleIndependentDatabase
from repro.logic.cq import parse_cq
from repro.plans.plan import execute_boolean, project_boolean
from repro.plans.safe_plan import safe_plan
from repro.plans.vectorized import available, execute_boolean_columnar

from tables import print_table

QUERY = "R(x), S(x,y)"

#: Machine-readable results of the last ``main()`` run, merged into
#: ``BENCH_results.json`` by ``run_all_tables.py``.
BENCH_RESULTS: dict = {}


def build_database(
    n_keys: int = 2000, n_facts: int = 100_000, seed: int = 20200614
) -> TupleIndependentDatabase:
    """A TID with |R| = *n_keys* and |S| = *n_facts*, deterministic in *seed*."""
    rng = random.Random(seed)
    db = TupleIndependentDatabase()
    db.add_relation("R", ("a0",))
    db.add_relation("S", ("a0", "a1"))
    for i in range(n_keys):
        db.add_fact("R", (f"k{i}",), rng.uniform(0.05, 0.95))
    per_key = n_facts // n_keys
    for i in range(n_keys):
        for j in range(per_key):
            db.add_fact("S", (f"k{i}", f"v{j}"), rng.uniform(0.05, 0.95))
    return db


#: AUTO may cost at most this multiple of the explicit safe-plan call.
AUTO_CEILING = 1.5


def serving_comparison(n_keys: int, n_facts: int, rounds: int = 3):
    """Row vs columnar serving of one safe plan, and AUTO vs the explicit
    route; returns (rows, ratio, diff, auto_ratio).

    Each backend is timed as the best of *rounds* executions of the same
    compiled plan — the repeat-traffic shape the engine session serves. The
    first columnar round doubles as the cold (encode-paying) measurement.
    The façade rows time ``ProbabilisticDatabase.probability`` end to end
    (parse, route, plan build, warm columnar execution).
    """
    db = build_database(n_keys, n_facts)
    plan = project_boolean(safe_plan(parse_cq(QUERY), db))

    row_times = []
    for _ in range(rounds):
        start = time.perf_counter()
        row_probability = execute_boolean(plan, db)
        row_times.append(time.perf_counter() - start)

    columnar_times = []
    for _ in range(rounds):
        start = time.perf_counter()
        columnar_probability = execute_boolean_columnar(plan, db)
        columnar_times.append(time.perf_counter() - start)

    pdb = ProbabilisticDatabase(tid=db, backend="columnar")
    facade = {}
    for method in (Method.SAFE_PLAN, Method.AUTO):
        times = []
        for _ in range(3 * rounds):  # millisecond calls: more rounds, less jitter
            start = time.perf_counter()
            pdb.probability(QUERY, method)
            times.append(time.perf_counter() - start)
        facade[method] = min(times)
    auto_ratio = facade[Method.AUTO] / facade[Method.SAFE_PLAN]

    row_time = min(row_times)
    cold_time = columnar_times[0]
    warm_time = min(columnar_times[1:])
    ratio = row_time / warm_time if warm_time > 0 else float("inf")
    diff = abs(row_probability - columnar_probability)

    table = [
        ("rows (tuple-at-a-time)", f"{row_time:.4f}s", f"{row_probability:.6f}"),
        ("columnar, cold (incl. encode)", f"{cold_time:.4f}s", f"{columnar_probability:.6f}"),
        ("columnar, warm (memoized scan)", f"{warm_time:.4f}s", f"{columnar_probability:.6f}"),
        ("speedup (rows / columnar warm)", f"{ratio:.1f}x", "-"),
        ("façade, Method.SAFE_PLAN", f"{facade[Method.SAFE_PLAN]:.4f}s", "-"),
        ("façade, Method.AUTO", f"{facade[Method.AUTO]:.4f}s", "-"),
        ("AUTO / SAFE_PLAN", f"{auto_ratio:.2f}x", "-"),
    ]
    return table, ratio, diff, auto_ratio


# -- assertions (pytest / CI smoke) -------------------------------------------


def test_e16_backends_agree_to_1e9():
    if not available():  # pragma: no cover - numpy is a declared dependency
        return
    _, _, diff, _ = serving_comparison(n_keys=200, n_facts=10_000)
    assert diff <= 1e-9, f"backends disagree by {diff:.2e}"


def test_e16_columnar_at_least_10x_on_1e5_rows():
    if not available():  # pragma: no cover - numpy is a declared dependency
        return
    _, ratio, diff, auto_ratio = serving_comparison(n_keys=2000, n_facts=100_000)
    assert diff <= 1e-9, f"backends disagree by {diff:.2e}"
    assert ratio >= 10.0, f"columnar only {ratio:.1f}x faster than rows"
    assert auto_ratio <= AUTO_CEILING, f"AUTO costs {auto_ratio:.2f}x safe-plan"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller database for CI smoke runs"
    )
    args = parser.parse_args()
    if not available():  # pragma: no cover - numpy is a declared dependency
        print("E16 skipped: numpy not importable, columnar backend unavailable")
        return
    if args.quick:
        n_keys, n_facts, floor = 500, 20_000, 3.0
    else:
        n_keys, n_facts, floor = 2000, 100_000, 10.0

    table, ratio, diff, auto_ratio = serving_comparison(n_keys, n_facts)
    print_table(
        f"E16: safe plan for {QUERY} over |R|={n_keys}, |S|={n_facts:,}",
        ["backend", "time (best of 3)", "probability"],
        table,
    )
    print(f"row-vs-columnar |Δp| = {diff:.2e}")
    assert diff <= 1e-9, f"backends disagree by {diff:.2e}"
    assert ratio >= floor, f"columnar only {ratio:.1f}x faster than rows (need {floor}x)"
    assert auto_ratio <= AUTO_CEILING, (
        f"AUTO costs {auto_ratio:.2f}x the explicit safe-plan route "
        f"(ceiling {AUTO_CEILING}x): is it grounding a safe query?"
    )
    BENCH_RESULTS["e16_columnar_speedup"] = round(ratio, 2)
    BENCH_RESULTS["e16_auto_over_safe_plan"] = round(auto_ratio, 2)
    BENCH_RESULTS["e16_row_vs_columnar_abs_error"] = diff


if __name__ == "__main__":
    main()
