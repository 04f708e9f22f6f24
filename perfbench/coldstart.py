"""Child of the cold set-up measurement for the library workloads.

A fresh interpreter imports the engine, loads the CSV files, builds the
session (and installs the scenarios), answers the first scheduled op and
prints the answer. The parent times it from before the spawn to the moment
the answer line arrives: cold time-to-first-answer.

    python perfbench/coldstart.py <spec.json>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from perfbench.targets import LibTarget

    spec = json.loads(Path(sys.argv[1]).read_text())
    target = LibTarget(spec["csv_paths"], spec["scenarios"])
    outcome = target.run(spec["op"])
    print(json.dumps({"probability": outcome.probability}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
