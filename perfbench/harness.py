"""Run one workload: set-ups, warm-up, timed rounds, checks, metrics.

Run shape: one untimed cold set-up → the timed ones → one untimed warm-up
round → timed rounds replaying the identical schedule, the program's state
reset before each round outside the timed region → teardown. (A library
workload's timed set-ups are spread between its rounds: see ``run_lib``.)
Every reported number is a median: of the rounds, of the set-ups.

The library workloads are single-threaded, and the two vCPUs of the
reference box run at speeds 15–20 % apart that change independently, every
few seconds to minutes. Left to the scheduler, a round measures whichever
vCPU it happened to sit on. So set-ups and rounds are pinned to the CPUs in
turn: half of them run on each, and their median is the mean of the two
speeds whichever is the fast one. (A served workload keeps both busy.)
"""

from __future__ import annotations

import gc
import json
import statistics
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy

from .estimators import percentile, samples_beyond
from .metrics import END_TO_END
from .targets import (
    ROOT,
    LibTarget,
    Outcome,
    ServerProcess,
    ServeTarget,
    check,
    program_env,
)
from .workloads import (
    SPECS,
    Datasets,
    Schedule,
    WorkloadSpec,
    apply_golden,
    blocks_for,
    build,
    rounds_for,
)

Op = Dict[str, Any]

OUT = ROOT / "perfbench" / "out"
GOLDEN = ROOT / "perfbench" / "golden"


@dataclass
class Prepared:
    spec: WorkloadSpec
    schedule: Schedule
    data: Datasets
    csv_paths: List[str]
    out: Path


@dataclass
class RoundResult:
    """One replay of the schedule: per-op latencies and outcomes per caller."""

    wall_s: float
    cpu_s: float
    latencies: List[List[float]]
    outcomes: List[List[Outcome]]
    #: Answer-cache evictions during the round (library workloads).
    evictions: int = 0

    def flat(self, callers: Sequence[Sequence[Op]]) -> List[Tuple[Op, float, Outcome]]:
        return [
            (op, latency, outcome)
            for ops, lats, outs in zip(callers, self.latencies, self.outcomes)
            for op, latency, outcome in zip(ops, lats, outs)
        ]


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def prepare(workload: str, seed: int, quick: bool) -> Prepared:
    """Build the schedule, apply a committed golden file, write the CSVs."""
    spec = SPECS[workload]
    schedule, data = build(workload, seed, blocks_for(spec, quick))
    golden_path = GOLDEN / f"{workload}.json"
    if golden_path.exists() and not quick:
        golden = json.loads(golden_path.read_text())
        # The committed file anchors the canonical schedule (seed 14); any
        # other is checked against the oracle alone.
        if golden["seed"] == seed:
            apply_golden(schedule, golden)
    OUT.mkdir(parents=True, exist_ok=True)
    csv_paths = data.write(OUT / "data" / f"{workload}-{seed}")
    return Prepared(spec, schedule, data, csv_paths, OUT)


# -- rounds --------------------------------------------------------------------


def _replay(run: Callable[[Op], Outcome], ops: Sequence[Op]) -> Tuple[List[float], List[Outcome]]:
    latencies: List[float] = []
    outcomes: List[Outcome] = []
    clock = time.perf_counter
    for op in ops:
        start = clock()
        outcome = run(op)
        latencies.append(clock() - start)
        outcomes.append(outcome)
    return latencies, outcomes


def lib_round(target: LibTarget, ops: Sequence[Op]) -> RoundResult:
    cache = target.session.cache.stats
    evictions = cache.evictions
    cpu = time.process_time()
    start = time.perf_counter()
    latencies, outcomes = _replay(target.run, ops)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    return RoundResult(wall, cpu, [latencies], [outcomes], cache.evictions - evictions)


def serve_round(
    server: ServerProcess, targets: Sequence[ServeTarget], callers: Sequence[Sequence[Op]]
) -> RoundResult:
    """Closed loop: one thread per connection, each waits for every reply."""
    results: List[Any] = [None] * len(targets)
    spans: List[Tuple[float, float]] = [(0.0, 0.0)] * len(targets)
    barrier = threading.Barrier(len(targets) + 1)

    def drive(index: int) -> None:
        barrier.wait()
        begin = time.perf_counter()
        try:
            results[index] = _replay(targets[index].run, callers[index])
        except BaseException as error:  # re-raised by the caller below
            results[index] = error
        spans[index] = (begin, time.perf_counter())

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(targets))]
    for thread in threads:
        thread.start()
    cpu = server.cpu_seconds()
    barrier.wait()
    for thread in threads:
        thread.join()
    cpu = server.cpu_seconds() - cpu
    for result in results:
        if isinstance(result, BaseException):
            raise result
    wall = max(end for _, end in spans) - min(begin for begin, _ in spans)
    return RoundResult(wall, cpu, [r[0] for r in results], [r[1] for r in results])


def round_metrics(result: RoundResult, callers: Sequence[Sequence[Op]]) -> Dict[str, Any]:
    flat = result.flat(callers)
    latencies_ms = [latency * 1e3 for _, latency, _ in flat]
    failed = sum(1 for op, _, outcome in flat if not check(op, outcome))
    by_class: Dict[str, List[float]] = {}
    for op, latency, _ in flat:
        by_class.setdefault(op["cls"], []).append(latency * 1e3)
    return {
        "ops": len(flat),
        "failed": failed,
        "wall_s": result.wall_s,
        "throughput_ops_s": len(flat) / result.wall_s,
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p95_ms": percentile(latencies_ms, 95),
        "cpu_ms_per_op": result.cpu_s * 1e3 / len(flat),
        "samples_beyond_p95": samples_beyond(len(flat), 95),
        "evictions": result.evictions,
        "class_p50_ms": {cls: percentile(v, 50) for cls, v in sorted(by_class.items())},
    }


def first_failures(
    result: RoundResult, callers: Sequence[Sequence[Op]], limit: int = 3
) -> List[str]:
    out = []
    for op, _, outcome in result.flat(callers):
        if not check(op, outcome):
            out.append(f"{op['cls']} {op.get('query', op['kind'])!r}: got {outcome}, want {op.get('expect')}")
            if len(out) == limit:
                break
    return out


# -- set-up --------------------------------------------------------------------


def cold_setup_lib(prep: Prepared) -> Tuple[float, bool]:
    """Cold time-to-first-answer of a fresh process; see coldstart.py."""
    op = prep.schedule.first_op(prep.spec.setup_class)
    spec_path = prep.out / f"coldstart_{prep.spec.name}.json"
    spec_path.write_text(
        json.dumps({"csv_paths": prep.csv_paths, "scenarios": prep.schedule.scenarios, "op": op})
    )
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "coldstart.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        text=True,
        env=program_env(),
    )
    assert child.stdout is not None
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.close()
    ok = child.wait(timeout=60) == 0 and bool(line)
    if ok:
        ok = check(op, Outcome(json.loads(line)["probability"], rung=op.get("rung")))
    return elapsed, ok


def cold_setup_serve(prep: Prepared) -> Tuple[float, bool, ServerProcess, List[str]]:
    """Spawn the server, install the scenarios, get the first answer right."""
    op = prep.schedule.first_op(prep.spec.setup_class)
    server = ServerProcess(
        prep.csv_paths, prep.spec.server_mode or "threads", prep.out / f"server_{prep.spec.name}.log"
    )
    try:
        ids = ServeTarget.install(server, prep.schedule.scenarios)
        target = ServeTarget(server, ids)
        try:
            outcome = target.run(op)
        finally:
            target.close()
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - server.started
    return elapsed, check(op, outcome), server, ids


# -- the two drivers -----------------------------------------------------------


@dataclass
class Measured:
    setups_s: List[float] = field(default_factory=list)
    setup_ok: bool = True
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: Kept for the traced run: the last timed round, op by op.
    last_round: Optional[RoundResult] = None


def _reset_lib(prep: Prepared, target: LibTarget) -> None:
    if prep.spec.name == "lib_update_mix":
        target.reload()  # writes changed the database: start from the files
    else:
        target.session.invalidate()
    gc.collect()


def run_lib(prep: Prepared, rounds: int) -> Tuple[Measured, LibTarget]:
    """Before every round a cold set-up on each CPU, so that the set-ups
    see as much of the run, and of both CPUs, as the rounds do."""
    measured = Measured()
    cpus = sorted(os.sched_getaffinity(0))
    try:
        # Untimed: the first start compiles the engine's bytecode and pulls
        # its files into the page cache.
        _, measured.setup_ok = cold_setup_lib(prep)
        target = LibTarget(prep.csv_paths, prep.schedule.scenarios)
        ops = prep.schedule.callers[0]
        _reset_lib(prep, target)
        lib_round(target, ops[: max(1, int(len(ops) * prep.spec.warmup_share))])
        for index in range(rounds):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})  # the child inherits it
                elapsed, ok = cold_setup_lib(prep)
                measured.setups_s.append(elapsed)
                measured.setup_ok &= ok
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            _reset_lib(prep, target)
            result = lib_round(target, ops)
            measured.rounds.append(round_metrics(result, [ops]))
            measured.failures += first_failures(result, [ops])
            measured.last_round = result
    finally:
        os.sched_setaffinity(0, cpus)
    measured.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return measured, target


def reset_serve(prep: Prepared, target: ServeTarget) -> bool:
    """Flush every LRU in the server, then bring the hot set back in.

    Outside the timed region. After it, hot ops hit and nothing else does,
    in every round alike and whichever worker a query is routed to.
    """
    ok = True
    for query in prep.schedule.flush:
        ok &= bool(target.client.query(query, method="dpll").get("ok"))
    for op in prep.schedule.rewarm:
        ok &= check(op, target.run(op))
    return ok


def run_serve(
    prep: Prepared, rounds: int, setups: int
) -> Tuple[Measured, ServerProcess, List[ServeTarget]]:
    """Returns with the server still running; the caller stops it."""
    measured = Measured()
    # The first set-up is untimed, as for the library workloads.
    _, measured.setup_ok, server, ids = cold_setup_serve(prep)
    for _ in range(setups):
        server.stop()
        elapsed, ok, server, ids = cold_setup_serve(prep)
        measured.setups_s.append(elapsed)
        measured.setup_ok &= ok
    targets: List[ServeTarget] = []
    try:
        callers = prep.schedule.callers
        targets = [ServeTarget(server, ids) for _ in callers]
        measured.setup_ok &= reset_serve(prep, targets[0])
        serve_round(server, targets, callers)
        for _ in range(rounds):
            measured.setup_ok &= reset_serve(prep, targets[0])
            result = serve_round(server, targets, callers)
            measured.rounds.append(round_metrics(result, callers))
            measured.failures += first_failures(result, callers)
            measured.last_round = result
        measured.peak_rss_mb = server.peak_rss_mb()
    except BaseException:
        for target in targets:
            target.close()
        server.stop()
        raise
    return measured, server, targets


# -- one workload --------------------------------------------------------------


def end_to_end_metrics(measured: Measured) -> Dict[str, Dict[str, Any]]:
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, unit, _ in END_TO_END:
        if name == "setup_s":
            value = statistics.median(measured.setups_s)
        elif name == "peak_rss_mb":
            value = measured.peak_rss_mb
        else:
            value = statistics.median(r[name] for r in measured.rounds)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_workload(
    workload: str, seed: int, seconds: float, quick: bool = False, trace: bool = False
) -> Dict[str, Any]:
    """Run *workload* once; returns the result record (also written to out/)."""
    started = time.perf_counter()
    prep = prepare(workload, seed, quick)
    rounds = rounds_for(seconds, quick)
    if trace:
        # The traced run reports layers, not end-to-end numbers: four
        # reference rounds (two per CPU) are enough to relate the two.
        rounds = 4
    server: Optional[ServerProcess] = None
    targets: List[ServeTarget] = []
    lib_target: Optional[LibTarget] = None
    per_layer: Dict[str, Dict[str, Any]] = {}
    try:
        if prep.spec.driver == "lib":
            measured, lib_target = run_lib(prep, rounds)
        else:
            measured, server, targets = run_serve(prep, rounds, 1 if trace else prep.spec.setups)
        if trace:
            from . import tracing  # pulls in every layer: only the traced run pays

            per_layer = tracing.trace(prep, measured, lib_target, server, targets)
    finally:
        for target in targets:
            target.close()
        if server is not None:
            server.stop()
    attempted = sum(r["ops"] for r in measured.rounds) + len(measured.setups_s)
    failed = sum(r["failed"] for r in measured.rounds) + (0 if measured.setup_ok else 1)
    end_to_end = end_to_end_metrics(measured)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "trace": trace,
        "env": environment(),
        "blocks": prep.schedule.blocks,
        "callers": prep.spec.callers,
        "setups_s": measured.setups_s,
        "rounds": measured.rounds,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": measured.failures[:10],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "wall_s": time.perf_counter() - started,
    }
    name = f"trace_{workload}.json" if trace else f"{workload}.json"
    (prep.out / name).write_text(json.dumps(record, indent=1))
    return record


def report(record: Dict[str, Any]) -> str:
    """Every metric by name with its unit, and what the numbers rest on."""
    lines = [
        f"== {record['workload']}  seed={record['seed']}  blocks={record['blocks']}"
        f"  callers={record['callers']}  rounds={len(record['rounds'])}"
        f"{'  QUICK (smoke only, never compare)' if record['quick'] else ''}"
    ]
    rounds = record["rounds"]
    for name, metric in record["end_to_end"].items():
        if name == "setup_s":
            basis = "set-ups: " + " ".join(f"{v:.3f}" for v in record["setups_s"])
        elif name == "peak_rss_mb":
            basis = "whole run"
        else:
            basis = "rounds: " + " ".join(f"{r[name]:.3f}" for r in rounds)
        lines.append(f"  {name:<20} {metric['value']:>12.4f} {metric['unit']:<6} [{basis}]")
    lines.append(
        f"  {'failed_share':<20} {record['failed_share']:>12.4f} {'share':<6} "
        f"[{record['failed']} of {record['attempted']} attempted]"
    )
    if rounds:
        lines.append(
            f"  samples per round: {rounds[0]['ops']} ops, "
            f"{rounds[0]['samples_beyond_p95']} beyond p95; class p50 (ms): "
            + ", ".join(f"{cls} {v:.2f}" for cls, v in rounds[-1]["class_p50_ms"].items())
        )
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    for name, metric in record["per_layer"].items():
        note = "" if metric["exercised"] else "  (not exercised by this workload)"
        lines.append(f"  {name:<36} {metric['value']:>14.5f} {metric['unit']}{note}")
    lines.append(f"  (wall {record['wall_s']:.1f} s)")
    return "\n".join(lines)


def contract_line(record: Dict[str, Any]) -> str:
    """The driver's result object: the last line of standard output."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in metrics.items()
            },
        }
    )
