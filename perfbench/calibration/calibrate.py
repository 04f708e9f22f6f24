"""Derive every bound from the committed calibration suites.

    python3 perfbench/calibration/calibrate.py            # derive, write the bounds
    python3 perfbench/calibration/calibrate.py --check    # fail if the committed bounds differ

The inputs are full suites run back to back on the commit that defines the
benchmark, each recording ``nproc``, interpreter and numpy versions and the
machine's load average:

``same_<i>.json``   at least ``MIN_SAME`` suites of the default seed: the same
                    inputs every time, so what separates them is the machine
``seed_<n>.json``   at least ``MIN_SEEDS`` suites, each with another ``--seed``:
                    how the benchmark's contract judges it (README.md, "The
                    contract")

Rule, per end-to-end metric × workload (no row is exempt, ``setup_s`` neither,
and nothing is capped):

    need = max(FLOOR,
               3 × (inter-quartile range ÷ median) over the other-seed suites,
               worst relative deviation from the median over the same-seed suites,
               the same over the other-seed suites)

The first term keeps the spread the contract's judge computes under a third
of the bound. The deviations keep the unluckiest single run seen from reading
as a regression against a typical one in ``compare.py``. They are taken over
the runs ``compare.py`` would judge at that bound: a run whose own replicates
of the metric spread wider than the bound (a burst from a neighbour in the
middle of it) is ``unresolved`` there, not ``worse``. Such a run is listed
when it would have raised the need.

A row's bound is its need, rounded up to a whole percent, written to
``bounds.json`` next to this file for ``compare.py``. A row that needs more
than ``LIMIT``, the most the contract allows a bound to be, is *demoted*:
``null`` in ``bounds.json``, reported by ``compare.py`` without a verdict,
and listed here with what it needs. ``BENCHMARK.json`` has one metric list
for all workloads, so there a metric gets the largest need over the
workloads, at most ``LIMIT``. Calibration fails, and writes nothing, when
even that breaks the contract's own condition: a row whose spread over the
other-seed suites exceeds the metric's bound. Rows over ``TARGET``, the 10 %
the issue asked for, are flagged.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[0] = str(ROOT)

from perfbench.compare import spread_of  # noqa: E402
from perfbench.estimators import iqr_share  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import BASE_SECONDS, SPECS  # noqa: E402

FLOOR = 0.05
TARGET = 0.10
LIMIT = 0.25
MIN_SAME = 5
MIN_SEEDS = 10

Row = Tuple[str, str]  # (workload, metric)


def load(pattern: str) -> List[Dict[str, Any]]:
    suites = [json.loads(path.read_text()) for path in sorted(HERE.glob(pattern))]
    for suite in suites:
        if suite.get("quick") or suite.get("trace") or set(suite["workloads"]) != set(SPECS):
            raise SystemExit("calibration suites must be full, untraced suites of every workload")
        if any(record["failed"] for record in suite["workloads"].values()):
            raise SystemExit("a calibration suite has failed ops")
    return suites


def load_suites() -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    same, seeds = load("same_*.json"), load("seed_*.json")
    if len(same) < MIN_SAME or len({suite["seed"] for suite in same}) != 1:
        raise SystemExit(f"calibration needs at least {MIN_SAME} same_*.json suites of one seed")
    if len({suite["seed"] for suite in seeds}) < MIN_SEEDS:
        raise SystemExit(f"calibration needs seed_*.json suites of {MIN_SEEDS} distinct seeds")
    return same, seeds


def runs_of(suites: List[Dict[str, Any]], workload: str, metric: str) -> List[Dict[str, Any]]:
    """Per suite: how far its value is from the median of *suites*, and how
    widely its own replicates of the metric spread."""
    records = [suite["workloads"][workload] for suite in suites]
    median = statistics.median(record["end_to_end"][metric]["value"] for record in records)
    return [
        {
            "off": abs(record["end_to_end"][metric]["value"] - median) / median,
            "spread": spread_of(workload, record, metric),
            "suite": f"seed {suite['seed']} started at load {suite['env']['loadavg'][0]:.2f}",
        }
        for suite, record in zip(suites, records)
    ]


def needs(
    same: List[Dict[str, Any]], seeds: List[Dict[str, Any]], skipped: List[str]
) -> Dict[Row, Dict[str, float]]:
    table = {}
    for workload in SPECS:
        for metric, _, _ in END_TO_END:
            groups = {"same": runs_of(same, workload, metric), "seed": runs_of(seeds, workload, metric)}
            spread = iqr_share(
                [suite["workloads"][workload]["end_to_end"][metric]["value"] for suite in seeds]
            )
            # The smallest bound that covers every run it can judge: raising
            # it lets in runs it could not resolve before, so go up until
            # nothing it judges is further off than itself.
            need = max(FLOOR, 3 * spread)
            while True:
                bound = whole_percent(need)  # what compare.py will apply
                judged = {
                    group: max((run["off"] for run in runs if run["spread"] <= bound), default=0.0)
                    for group, runs in groups.items()
                }
                if max(judged.values()) <= need:
                    break
                need = max(judged.values())
            skipped += [
                f"{workload} {metric}, {run['suite']}: {run['off']:.0%} off, own spread {run['spread']:.0%}"
                for runs in groups.values()
                for run in runs
                if run["spread"] > bound and run["off"] > need
            ]
            table[(workload, metric)] = {
                "spread": spread,
                "same_deviation": judged["same"],
                "seed_deviation": judged["seed"],
                "need": need,
            }
    return table


def whole_percent(share: float) -> float:
    return math.ceil(share * 100 - 1e-9) / 100


def benchmark_json(bounds: Dict[str, float]) -> Dict[str, Any]:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": BASE_SECONDS,
        "workloads": [{"name": spec.name, "why": spec.why} for spec in SPECS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bounds[name]}
            for name, unit, better in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def main(argv: List[str]) -> int:
    same, seeds = load_suites()
    skipped: List[str] = []
    table = needs(same, seeds, skipped)
    print(
        f"{len(same)} suites of seed {same[0]['seed']}, "
        f"{len(seeds)} of seeds {[suite['seed'] for suite in seeds]}"
    )
    print(
        f"{'workload':<16} {'metric':<18} {'IQR/med':>8} {'same-seed dev':>13} "
        f"{'other-seed dev':>14} {'needs':>7}"
    )
    for (workload, metric), row in table.items():
        flag = ""
        if row["need"] > LIMIT:
            flag = f"  demoted: over the contract's {LIMIT:.0%}"
        elif row["need"] > TARGET:
            flag = f"  over the issue's {TARGET:.0%}"
        print(
            f"{workload:<16} {metric:<18} {row['spread']:>8.1%} {row['same_deviation']:>13.1%} "
            f"{row['seed_deviation']:>14.1%} {row['need']:>7.1%}{flag}"
        )
    for line in skipped:
        print(f"skipped (unresolved run): {line}")

    rows = {
        workload: {
            metric: whole_percent(need) if need <= LIMIT else None
            for metric, _, _ in END_TO_END
            for need in [table[(workload, metric)]["need"]]
        }
        for workload in SPECS
    }
    bounds = {
        metric: min(LIMIT, whole_percent(max(table[(w, metric)]["need"] for w in SPECS)))
        for metric, _, _ in END_TO_END
    }
    # The contract: "For setup_s [...] give it the largest bound."
    bounds["setup_s"] = max(bounds.values())
    print("BENCHMARK.json:", ", ".join(f"{name} {bound:.0%}" for name, bound in bounds.items()))
    broken = [row for row in table if table[row]["spread"] > bounds[row[1]]]
    if broken:
        print(f"calibration failed: {broken} spread wider than their bound", file=sys.stderr)
        return 1
    outputs = {
        HERE / "bounds.json": json.dumps(rows, indent=1) + "\n",
        ROOT / "BENCHMARK.json": json.dumps(benchmark_json(bounds), indent=2) + "\n",
    }
    for path, text in outputs.items():
        if "--check" in argv:
            if not path.exists() or path.read_text() != text:
                print(f"{path} does not match the calibration suites", file=sys.stderr)
                return 1
        else:
            path.write_text(text)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
