"""Compare two suite files, workload by workload and metric by metric.

    python3 perfbench/compare.py A.json B.json

A is the baseline, B the candidate; both are suite files written by
``run.py`` (``perfbench/out/suite.json`` or ``--out``). For every workload ×
end-to-end metric: both values, the relative change of B against A, the
row's bound from ``calibration/bounds.json`` and a verdict:

``better`` / ``worse``  B differs from A in that direction by more than the bound
``same``                within the bound
``unresolved``          either run's own replicates (its set-ups; its rounds,
                        or for a library workload its groups of one round per
                        CPU) spread wider than the bound (IQR ÷ median): that
                        run was disturbed and cannot resolve a change of that
                        size; neither "same" nor "worse" may be claimed
``ungated``             calibration found the row to need a wider bound than
                        the benchmark's contract allows; it is reported only

Exits non-zero on any ``worse`` and on any rise in ``failed_share``. One
run per side is a smoke check; a claim needs the paired runs described in
README.md ("Claiming a change").
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.estimators import replicate_spread  # noqa: E402
from perfbench.workloads import SPECS  # noqa: E402

Bounds = Dict[str, Dict[str, Tuple[str, Optional[float]]]]


def load_bounds() -> Bounds:
    """workload → metric → (better, bound): the direction from
    ``BENCHMARK.json``, the bound the row's own from calibration (``None``
    for a row calibration could not gate)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = json.loads((ROOT / "perfbench" / "calibration" / "bounds.json").read_text())
    return {
        workload: {m["name"]: (m["better"], bounds[m["name"]]) for m in spec["end_to_end"]}
        for workload, bounds in rows.items()
    }


def spread_of(workload: str, record: Dict[str, Any], name: str) -> float:
    """How widely one run's own replicates of metric *name* spread, as a
    share of their median; 0 for a figure taken once per run."""
    rounds = record["rounds"]
    # A library run sets up on each CPU before each round and takes the CPUs
    # in turn for the rounds: one of either per CPU makes a replicate.
    size = len(record["setups_s"]) // len(rounds) if SPECS[workload].driver == "lib" else 1
    if name == "setup_s":
        return replicate_spread(record["setups_s"], size)
    if name in rounds[0]:
        return replicate_spread([r[name] for r in rounds], size)
    return 0.0


def verdict(a: float, b: float, better: str, bound: float, spread: float) -> Tuple[float, str]:
    """Relative change of *b* against *a* (positive = worse) and the verdict."""
    change = (b - a) / a if a else 0.0
    worse = change if better == "lower" else -change
    if spread > bound:
        return change, "unresolved"
    if worse > bound:
        return change, "worse"
    if worse < -bound:
        return change, "better"
    return change, "same"


def compare(a: Dict[str, Any], b: Dict[str, Any], bounds: Bounds) -> Tuple[List[str], int]:
    rows = [
        f"{'workload':<16} {'metric':<18} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  verdict"
    ]
    status = 0
    for workload, record_a in a["workloads"].items():
        record_b = b["workloads"].get(workload)
        if record_b is None:
            rows.append(f"{workload:<16} missing from B")
            status = 1
            continue
        for name, (better, bound) in bounds[workload].items():
            value_a = record_a["end_to_end"][name]["value"]
            value_b = record_b["end_to_end"][name]["value"]
            if bound is None:
                change, word, shown = (value_b - value_a) / value_a, "ungated", "-"
            else:
                spread = max(spread_of(workload, record, name) for record in (record_a, record_b))
                change, word = verdict(value_a, value_b, better, bound, spread)
                shown = f"{bound:.0%}"
            if word == "worse":
                status = 1
            rows.append(
                f"{workload:<16} {name:<18} {value_a:>12.4f} {value_b:>12.4f} "
                f"{change:>+8.1%} {shown:>6}  {word}"
            )
        share_a, share_b = record_a["failed_share"], record_b["failed_share"]
        word = "worse" if share_b > share_a else "same"
        if word == "worse":
            status = 1
        rows.append(
            f"{workload:<16} {'failed_share':<18} {share_a:>12.4f} {share_b:>12.4f} "
            f"{'':>8} {'0%':>6}  {word}"
        )
    return rows, status


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for side, suite in (("A", a), ("B", b)):
        if suite.get("quick"):
            print(f"{side} is a --quick run: smoke only, never compared", file=sys.stderr)
            return 2
    rows, status = compare(a, b, load_bounds())
    print("\n".join(rows))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
