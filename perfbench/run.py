"""The benchmark's one command.

    python3 perfbench/run.py                      # the whole suite
    python3 perfbench/run.py --workload NAME      # one workload
    python3 perfbench/run.py --trace              # the traced (per-layer) run
    python3 perfbench/run.py --quick              # 2 short rounds, smoke only
    python3 perfbench/run.py --regen-golden       # rewrite perfbench/golden/

With ``--workload`` the run happens in this (fresh) process and the last
line of standard output is the result object the benchmark contract asks
for (README.md, "The contract"); the contract's driver also passes
``--seconds N`` and ``--trace 0|1``. Without ``--workload`` every workload
runs in a fresh subprocess of its own and the records are gathered into one
suite file (``--out``, default ``perfbench/out/suite.json``) for
``compare.py`` and ``calibrate.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import as the package ``perfbench`` from the checkout root, with the engine
# from ``src``; drop the script directory so no module here shadows another.
sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_SEED = 14


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured time per run: a timed round per 2.5 s (default: 15, as in BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the traced run, reporting per-layer metrics",
    )
    parser.add_argument("--quick", action="store_true", help="2 rounds of a 1/5 schedule")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--out", type=Path, default=None, help="suite file to write")
    return parser.parse_args(argv)


def run_suite(args: argparse.Namespace, seconds: float) -> int:
    from perfbench.harness import OUT, environment
    from perfbench.workloads import SPECS

    suite = {"seed": args.seed, "seconds": seconds, "quick": args.quick, "trace": bool(args.trace),
             "env": environment(), "workloads": {}}
    status = 0
    for workload in SPECS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        command += ["--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)  # all but the contract line
        if completed.returncode != 0:
            print(f"{workload}: exited with {completed.returncode}", file=sys.stderr)
            status = 1
            continue
        name = f"trace_{workload}.json" if args.trace else f"{workload}.json"
        record = json.loads((OUT / name).read_text())
        suite["workloads"][workload] = record
        if record["failed"]:
            status = 1
    if args.trace:
        status |= _suite_level_layers(suite)
    out = args.out if args.out is not None else OUT / ("suite_trace.json" if args.trace else "suite.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(suite, indent=1))
    print(f"suite written to {out}")
    return status


def _suite_level_layers(suite: dict) -> int:
    """What only a whole traced suite can say: the IPC overhead (a difference
    between two workloads), and that every per-layer metric was measured by
    at least one workload."""
    from perfbench.metrics import PER_LAYER

    records = suite["workloads"]
    if "serve_procs" in records and "serve_threads" in records:
        name = "server.frontdoor_overhead_ms"
        value = records["serve_procs"]["per_layer"][name]["value"] - records["serve_threads"]["per_layer"][name]["value"]
        suite["server.ipc_overhead_ms"] = {"value": value, "unit": "ms"}
        print(f"== suite\n  {'server.ipc_overhead_ms':<36} {value:>14.5f} ms  (serve_procs - serve_threads front door)")
    unmeasured = [
        name
        for name in PER_LAYER
        if not any(record["per_layer"][name]["exercised"] for record in records.values())
    ]
    if unmeasured:
        print(f"no workload exercised {unmeasured}", file=sys.stderr)
    return 1 if unmeasured else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: the engine is not importable from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from perfbench import harness
    from perfbench.workloads import BASE_SECONDS, SPECS

    if args.workload is not None and args.workload not in SPECS:
        print(f"unknown workload {args.workload!r}; expected one of {', '.join(SPECS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else BASE_SECONDS
    if args.regen_golden:
        from perfbench.regen import regenerate

        for workload in [args.workload] if args.workload else list(SPECS):
            regenerate(workload, args.seed)
        return 0
    if args.workload is None:
        return run_suite(args, seconds)
    record = harness.run_workload(
        args.workload, args.seed, seconds, quick=args.quick, trace=bool(args.trace)
    )
    print(harness.report(record))
    print(harness.contract_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
