#!/usr/bin/env python3
"""Regenerate every experiment table (E1–E19) in one run.

The per-experiment benchmark modules each expose a ``main()`` that prints
the paper-shaped series; this driver runs them all in order. EXPERIMENTS.md
records a snapshot of this output.

Besides the printed tables, the run writes ``BENCH_results.json`` next to
this script: one record per benchmark with its name, wall-clock seconds,
and whatever machine-readable metrics the module published through its
``BENCH_RESULTS`` dict (e.g. E16's row-vs-columnar speedup ratio) — the
hook for tracking performance across commits. A bench that publishes no
metrics fails the run loudly: silent gaps in ``BENCH_results.json`` would
otherwise read as "nothing regressed".

Run:  python benchmarks/run_all_tables.py
"""

import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

MODULES = [
    "bench_e01_example21",
    "bench_e02_hardness_scaling",
    "bench_e03_fig2_circuits",
    "bench_e04_dichotomy",
    "bench_e05_inclusion_exclusion",
    "bench_e06_plans",
    "bench_e07_bounds",
    "bench_e08_obdd_sizes",
    "bench_e09_lifted_vs_grounded",
    "bench_e10_symmetric",
    "bench_e11_mln",
    "bench_e12_wmc_table",
    "bench_e13_approximation",
    "bench_e14_engine_cache",
    "bench_e15_boolean_kernel",
    "bench_e16_columnar_plans",
    "bench_e17_server_throughput",
    "bench_e18_worker_pool",
    "bench_e19_conditioning",
]

RESULTS_PATH = Path(__file__).parent / "BENCH_results.json"


def main() -> None:
    total_start = time.perf_counter()
    records = []
    for name in MODULES:
        module = importlib.import_module(name)
        start = time.perf_counter()
        module.main()
        seconds = time.perf_counter() - start
        print(f"\n[{name} done in {seconds:.1f}s]")
        print("=" * 72)
        metrics = dict(getattr(module, "BENCH_RESULTS", {}))
        if not metrics:
            raise SystemExit(
                f"{name} published no BENCH_RESULTS metrics — every bench "
                "must record at least one machine-readable result"
            )
        records.append(
            {
                "bench": name,
                "seconds": round(seconds, 3),
                "metrics": metrics,
            }
        )
    total = time.perf_counter() - total_start
    RESULTS_PATH.write_text(
        json.dumps(
            {"total_seconds": round(total, 3), "benchmarks": records}, indent=2
        )
        + "\n"
    )
    print(f"\nall tables regenerated in {total:.1f}s")
    print(f"machine-readable results: {RESULTS_PATH}")


if __name__ == "__main__":
    main()
