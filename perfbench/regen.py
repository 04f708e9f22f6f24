"""``run.py --regen-golden``: write ``perfbench/golden/<workload>.json``.

A golden file holds, for the canonical schedule of a workload (given seed,
default length), the answer expected of every op and, for served ops, the
rung. The values are the engine's own, by the route the schedule uses, at
the commit that regenerated the file: a regression anchor. Before they are
written each one is cross-checked against the closed-form oracle
(:mod:`perfbench.datasets`, which never calls the engine) and, where one
exists, against a second route through the engine:

* point-selected safe CQs — safe plan (every op) and lifted inference (a
  seeded sample: one lifted evaluation costs 80 ms);
* unsafe CQs/UCQs — grounded DPLL and the weighted model count of the
  compiled decision-DNNF;
* tuple posteriors — circuit differentiation;
* posteriors and what-ifs — the conditioned scenario's exact count.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict

from repro import Method
from repro.wmc.dpll import compile_decision_dnnf

from .harness import GOLDEN, OUT
from .targets import LibTarget
from .workloads import EXACT_TOL, SPECS, build, golden_of

LIFTED_SAMPLE_PCT = 20


def _second_route(target: LibTarget, op: Dict[str, Any], rng: random.Random) -> Any:
    if op["kind"] != "query":
        return None
    if op.get("method") == "safe-plan":
        if rng.random() * 100 < LIFTED_SAMPLE_PCT:
            return target.session.query(op["query"], Method.LIFTED).probability
        return None
    if op.get("method") == "auto" and op["cls"] == "point_auto":
        return target.session.query(op["query"], Method.SAFE_PLAN).probability
    lineage = target.session.lineage(op["query"])
    probabilities = lineage.probabilities()
    return compile_decision_dnnf(lineage.expr, probabilities).circuit.wmc(probabilities)


def _dumps(golden: Dict[str, Any]) -> str:
    """One op per line, so a changed answer is a one-line diff."""
    head = {key: value for key, value in golden.items() if key != "callers"}
    callers = ",\n".join(
        "[\n" + ",\n".join(json.dumps(op) for op in caller) + "\n]" for caller in golden["callers"]
    )
    return json.dumps(head)[:-1] + ', "callers": [\n' + callers + "\n]}\n"


def regenerate(workload: str, seed: int) -> None:
    schedule, data = build(workload, seed, SPECS[workload].blocks)
    target = LibTarget(data.write(OUT / "data" / f"{workload}-{seed}"), schedule.scenarios)
    rng = random.Random(f"perfbench/regen/{workload}/{seed}")
    checked = second = 0
    for op in schedule.ops():
        if op.get("expect") is None:
            target.run(op)  # a write: keep the database in step with the schedule
            continue
        # A degraded op's golden value is the exact probability; the sampled
        # answer is checked against it within ε at run time.
        engine_op = dict(op, method=op.get("method", "dpll"))
        answer = target.run(engine_op).probability
        other = _second_route(target, engine_op, rng)
        for route, value in (("the oracle", op["expect"]), ("a second route", other)):
            if value is not None and abs(value - answer) > EXACT_TOL:
                raise AssertionError(
                    f"{workload}: engine says {answer!r}, {route} {value!r} for {op['query']!r}"
                )
        op["expect"] = answer
        checked += 1
        second += other is not None
    GOLDEN.mkdir(parents=True, exist_ok=True)
    path = GOLDEN / f"{workload}.json"
    path.write_text(_dumps(golden_of(schedule)))
    print(f"{path}: {checked} engine answers agree with the oracle, {second} of them with a second route too")
