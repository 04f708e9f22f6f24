"""Tests of the benchmark harness itself.

    python -m pytest perfbench -q

Outside tier-1's ``testpaths`` on purpose: the last tests run the whole
suite and a traced workload in ``--quick`` mode (about a minute).
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import compare, workloads
from perfbench.datasets import Family, Scenario, make_families
from perfbench.estimators import (
    iqr_share,
    percentile,
    replicate_spread,
    samples_beyond,
    self_times,
)
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import SPECS, apply_golden, blocks_for, build, golden_of

ROOT = Path(__file__).resolve().parent.parent


# -- schedules ---------------------------------------------------------------------


@pytest.mark.parametrize("workload", list(SPECS))
def test_schedules_depend_on_the_seed_alone(workload):
    blocks = blocks_for(SPECS[workload], quick=True)
    first, _ = build(workload, 14, blocks)
    again, _ = build(workload, 14, blocks)
    other, _ = build(workload, 15, blocks)
    assert first.dumps() == again.dumps()
    assert first.dumps() != other.dumps()


@pytest.mark.parametrize("workload", list(SPECS))
def test_class_shares_are_exact(workload):
    spec = SPECS[workload]
    blocks = blocks_for(spec, quick=True)
    schedule, _ = build(workload, 14, blocks)
    for ops in schedule.callers:
        counts = {}
        for op in ops:
            counts[op["cls"]] = counts.get(op["cls"], 0) + 1
        assert counts == {cls.name: cls.slots * blocks for cls in spec.classes}


@pytest.mark.parametrize("workload", list(SPECS))
def test_p50_and_p95_fall_inside_a_class(workload):
    """Not within 3 percentile points of a boundary between two classes."""
    for q in (50.0, 95.0):
        inside = [
            name for name, low, high in SPECS[workload].shares() if low + 3 <= q <= high - 3
        ]
        assert len(inside) == 1, (workload, q, SPECS[workload].shares())


@pytest.mark.parametrize("workload", list(SPECS))
def test_a_full_round_has_ten_samples_beyond_p95(workload):
    spec = SPECS[workload]
    assert samples_beyond(spec.blocks * workloads.BLOCK * spec.callers, 95) >= 10


def test_a_cold_setup_answers_the_same_class_of_op_whatever_the_seed():
    assert {name: spec.setup_class for name, spec in SPECS.items()} == {
        "lib_extensional": "point_safe",
        "lib_intensional": "exact_cq",
        "lib_update_mix": "recompute_safe",
        "serve_threads": "cold_exact",
        "serve_procs": "cold_exact",
    }
    for seed in (14, 15):
        schedule, _ = build("lib_extensional", seed, 2)
        assert schedule.first_op("point_safe")["method"] == "safe-plan"


def test_every_seed_schedules_the_same_family_shapes():
    """A count's cost depends on the family's shape alone, so every seed
    must give each class the same shapes (in another order)."""

    def shapes_by_class(seed):
        schedule, data = build("lib_intensional", seed, 6)
        shape = {
            f.cq(): tuple(p > 0 for row in f.s for p in row) for f in data.families
        }
        out = {}
        for op in schedule.ops():
            if op["cls"] == "exact_cq":
                out.setdefault(op["cls"], []).append(shape[op["query"]])
        return {cls: sorted(v) for cls, v in out.items()}

    assert shapes_by_class(14) == shapes_by_class(15)
    distinct = {tuple(p > 0 for row in f.s for p in row) for f in make_families(14, 540)}
    assert len(distinct) == 540


# -- the oracle --------------------------------------------------------------------


def _brute_force(family: Family, kind: str) -> float:
    """P(query) by enumerating every world of a tiny family."""
    d = len(family.r)
    facts = [("R", i) for i in range(d)] + [("T", j) for j in range(d)]
    facts += [("S", i, j) for i in range(d) for j in range(d) if family.s[i][j] > 0]
    prior = {
        f: family.r[f[1]] if f[0] == "R" else family.t[f[1]] if f[0] == "T" else family.s[f[1]][f[2]]
        for f in facts
    }
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(facts)):
        world = {f for f, bit in zip(facts, bits) if bit}
        weight = 1.0
        for f, bit in zip(facts, bits):
            weight *= prior[f] if bit else 1.0 - prior[f]
        if kind == "cq":
            holds = any(("R", i) in world and ("S", i, j) in world and ("T", j) in world
                        for i in range(d) for j in range(d))
        else:
            holds = any(("S", i, j) in world and (("R", i) in world or ("T", j) in world)
                        for i in range(d) for j in range(d))
        total += weight * holds
    return total


def test_oracle_agrees_with_possible_worlds():
    family = Family(0, [0.3, 0.8], [[0.5, 0.0], [0.9, 0.4]], [0.6, 0.2])
    for kind in ("cq", "ucq"):
        assert family.probability(kind) == pytest.approx(_brute_force(family, kind), abs=1e-12)
    pinned = Family(0, [1.0, 0.8], [[0.5, 0.0], [0.9, 0.4]], [0.6, 0.0])
    assert family.probability("cq", {("R", 0): 1.0, ("T", 1): 0.0}) == pytest.approx(
        _brute_force(pinned, "cq"), abs=1e-12
    )


def test_scenario_posteriors_are_probabilities():
    for scenario in (Scenario(f, kind) for f in make_families(14, 2) for kind in ("require", "forbid")):
        for key in scenario.free_facts():
            assert 0.0 <= scenario.fact_posterior(key) <= 1.0


# -- estimators --------------------------------------------------------------------


def test_reported_numbers_are_medians_of_rounds_and_setups():
    from perfbench.harness import Measured, end_to_end_metrics

    rounds = [
        {"throughput_ops_s": t, "op_p50_ms": 1.0, "op_p95_ms": 9.0, "cpu_ms_per_op": 2.0}
        for t in (100.0, 80.0, 101.0, 79.0, 99.0, 20.0)  # two vCPU speeds and one hiccup
    ]
    metrics = end_to_end_metrics(Measured(setups_s=[0.3, 0.2, 0.9, 0.25], rounds=rounds, peak_rss_mb=50.0))
    assert metrics["throughput_ops_s"] == {"value": 89.5, "unit": "ops/s"}
    assert metrics["setup_s"]["value"] == pytest.approx(0.275)
    assert metrics["peak_rss_mb"]["value"] == 50.0
    assert workloads.rounds_for(workloads.BASE_SECONDS, quick=False) == 6
    assert workloads.rounds_for(60, quick=False) == 24
    assert workloads.rounds_for(60, quick=True) == workloads.QUICK_ROUNDS


def test_library_setups_and_rounds_take_the_cpus_in_turn(monkeypatch):
    from perfbench import harness

    allowed = os.sched_getaffinity(0)
    pinned = []
    real = os.sched_setaffinity
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: (pinned.append(set(cpus)), real(pid, cpus)))
    prep = harness.prepare("lib_update_mix", 15, quick=True)
    measured, _ = harness.run_lib(prep, rounds=4)
    cpus = [{cpu} for cpu in sorted(allowed)]
    # per round: a set-up on every CPU, then the round on the next CPU in turn
    assert pinned == [s for i in range(4) for s in cpus + [cpus[i % len(cpus)]]] + [allowed]
    assert os.sched_getaffinity(0) == allowed
    assert len(measured.setups_s) == 4 * len(cpus) and len(measured.rounds) == 4
    assert measured.setup_ok


def test_percentile_and_spread():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile(list(range(101)), 95) == 95
    assert samples_beyond(200, 95) == 10
    assert iqr_share([10, 10, 10, 10]) == 0.0
    assert iqr_share([8, 9, 10, 11, 12]) == pytest.approx(0.3)
    # Rounds that take two CPUs in turn, one 20 % slower: single rounds spread
    # by how far apart the CPUs are, replicates (a round per CPU) not at all.
    rounds = [100, 80, 100, 80, 100, 80]
    assert replicate_spread(rounds, 1) == pytest.approx(0.2 / 0.9)
    assert replicate_spread(rounds, 2) == 0.0
    assert replicate_spread([90, 110, 95, 105, 100, 100], 2) == 0.0
    # of three replicates, the range: one disturbed pair of rounds shows
    assert replicate_spread([100, 100, 120, 120, 80, 80], 2) == pytest.approx(0.4)
    assert replicate_spread([1, 2, 3], 2) == 0.0  # a single replicate


def test_span_self_time_subtracts_children_once():
    spans = [
        {"id": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "parse", "parent": 0, "start": 1.0, "end": 2.0},
        {"id": 2, "name": "count", "parent": 0, "start": 3.0, "end": 8.0},
        {"id": 3, "name": "cofactor", "parent": 2, "start": 4.0, "end": 5.0},
        # overlaps its sibling "count": the overlap is not subtracted twice
        {"id": 4, "name": "encode", "parent": 0, "start": 7.0, "end": 9.0},
    ]
    assert self_times(spans) == {
        "op": pytest.approx(10.0 - (1.0 + 5.0 + 1.0)),
        "parse": pytest.approx(1.0),
        "count": pytest.approx(4.0),
        "cofactor": pytest.approx(1.0),
        "encode": pytest.approx(2.0),
    }


# -- correctness checking ----------------------------------------------------------


def test_a_wrong_golden_value_fails_ops():
    from perfbench import harness
    from perfbench.targets import LibTarget

    prep = harness.prepare("lib_extensional", 15, quick=True)
    target = LibTarget(prep.csv_paths)
    ops = prep.schedule.callers[0][:10]
    clean = harness.round_metrics(harness.lib_round(target, ops), [ops])
    assert clean["failed"] == 0

    golden = golden_of(prep.schedule)
    golden["callers"][0][3]["expect"] += 1e-6
    apply_golden(prep.schedule, golden)
    target.session.invalidate()
    wrong = harness.round_metrics(harness.lib_round(target, ops), [ops])
    assert wrong["failed"] == 1

    golden["callers"][0][0]["query"] = "R(x), S(x,'elsewhere')"
    with pytest.raises(ValueError):
        apply_golden(prep.schedule, golden)


def test_a_wrong_rung_fails_the_op():
    from perfbench.targets import Outcome, check

    op = {"expect": 0.5, "tol": 0.1, "rung": "sampled"}
    assert check(op, Outcome(0.55, rung="sampled"))
    assert not check(op, Outcome(0.55, rung="exact"))
    assert not check(op, Outcome(0.7, rung="sampled"))
    assert not check(op, Outcome(None, error="overloaded"))


def test_committed_goldens_fit_the_schedule_and_the_oracle():
    """The files hold the engine's answers; the oracle never called it."""
    for workload, spec in SPECS.items():
        golden = json.loads((ROOT / "perfbench" / "golden" / f"{workload}.json").read_text())
        assert golden["blocks"] == spec.blocks
        schedule, _ = build(workload, golden["seed"], golden["blocks"])
        for ops, expected in zip(schedule.callers, golden["callers"]):
            assert [op.get("query") for op in ops] == [want["query"] for want in expected]
            for op, want in zip(ops, expected):
                if op.get("expect") is not None:
                    assert want["expect"] == pytest.approx(op["expect"], abs=workloads.EXACT_TOL)


# -- compare.py and BENCHMARK.json -------------------------------------------------


def test_verdicts():
    assert compare.verdict(10.0, 10.3, "lower", 0.05, 0.01) == (pytest.approx(0.03), "same")
    assert compare.verdict(10.0, 11.0, "lower", 0.05, 0.01)[1] == "worse"
    assert compare.verdict(10.0, 9.0, "lower", 0.05, 0.01)[1] == "better"
    assert compare.verdict(100.0, 90.0, "higher", 0.05, 0.01)[1] == "worse"
    assert compare.verdict(100.0, 111.0, "higher", 0.05, 0.01)[1] == "better"
    # replicates spread wider than the bound: the run cannot resolve the change
    assert compare.verdict(10.0, 11.0, "lower", 0.05, 0.08)[1] == "unresolved"


def _suite(setups, p50s):
    record = {
        "setups_s": setups,
        "rounds": [{"op_p50_ms": p50} for p50 in p50s],
        "end_to_end": {"setup_s": {"value": sorted(setups)[1]}, "op_p50_ms": {"value": sorted(p50s)[1]}},
        "failed_share": 0.0,
    }
    return {"workloads": {"serve_threads": record}}


def test_compare_rows():
    def words(a, b, bounds):
        rows, status = compare.compare(a, b, {"serve_threads": bounds})
        return [row.split()[-1] for row in rows[1:]], status

    gated = {"setup_s": ("lower", 0.10), "op_p50_ms": ("lower", 0.10)}
    calm = _suite([1.0, 1.01, 1.02], [5.0, 5.0, 5.1])
    assert words(calm, _suite([1.0, 1.01, 1.02], [5.2, 5.2, 5.3]), gated) == (["same"] * 3, 0)
    assert words(calm, _suite([1.2, 1.21, 1.22], [4.0, 4.0, 4.1]), gated) == (["worse", "better", "same"], 1)
    # a burst in the middle of B: its set-ups, and its rounds, resolve nothing
    burst = _suite([1.0, 1.5, 2.0], [5.0, 6.0, 8.0])
    assert words(calm, burst, gated) == (["unresolved", "unresolved", "same"], 0)
    # a row calibration could not gate is reported without a verdict
    ungated = {"setup_s": ("lower", None), "op_p50_ms": ("lower", 0.10)}
    assert words(calm, _suite([1.2, 1.21, 1.22], [5.0, 5.0, 5.1]), ungated) == (["ungated", "same", "same"], 0)
    failing = _suite([1.0, 1.01, 1.02], [5.0, 5.0, 5.1])
    failing["workloads"]["serve_threads"]["failed_share"] = 0.01
    assert words(calm, failing, gated) == (["same", "same", "worse"], 1)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(SPECS)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _, _ in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert spec["run_seconds"] == workloads.BASE_SECONDS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["end_to_end"][0]["name"] == "setup_s"
    assert spec["end_to_end"][0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # compare.py judges each row by its own bound, never a wider one.
    rows = compare.load_bounds()
    assert list(rows) == list(SPECS)
    for metric in spec["end_to_end"]:
        gated = [row[metric["name"]][1] for row in rows.values() if row[metric["name"]][1] is not None]
        assert all(0 < bound <= metric["bound"] for bound in gated)


def test_calibration_is_current():
    """``BENCHMARK.json`` and ``bounds.json`` are what ``calibrate.py``
    derives from the committed suites (and it fails on a row over 25 %)."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "calibration" / "calibrate.py"), "--check"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert completed.returncode == 0, completed.stdout


# -- the whole thing, quickly ------------------------------------------------------


def _benchmark_processes():
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if "repro serve" in cmdline or "coldstart.py" in cmdline or "multiprocessing" in cmdline:
                found.add((int(entry), cmdline))
    return found


def test_quick_suite_is_green_and_leaves_nothing_behind(tmp_path):
    shm_before = set(os.listdir("/dev/shm"))
    processes_before = _benchmark_processes()
    out = tmp_path / "suite.json"
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--quick", "--seed", "15", "--out", str(out)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout
    suite = json.loads(out.read_text())
    assert list(suite["workloads"]) == list(SPECS)
    for workload, record in suite["workloads"].items():
        assert record["failed"] == 0 and record["attempted"] > 0, workload
        assert set(record["end_to_end"]) == {name for name, _, _ in END_TO_END}
    assert set(os.listdir("/dev/shm")) - shm_before == set()
    assert _benchmark_processes() - processes_before == set()


def test_a_traced_run_reports_every_layer_metric_and_leaves_nothing_behind():
    """``serve_procs``: the one whose traced run publishes shared memory in
    the harness process itself (and so starts a resource tracker)."""
    shm_before = set(os.listdir("/dev/shm"))
    processes_before = _benchmark_processes()
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "serve_procs"]
    command += ["--seed", "15", "--seconds", "15", "--trace", "1", "--quick"]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    assert completed.returncode == 0, completed.stdout
    result = json.loads(completed.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(PER_LAYER)
    assert result["metrics"]["relational.shm_publish_ms"]["value"] > 0
    assert result["metrics"]["plans.build_ms"]["value"] == 0  # not exercised here
    assert set(os.listdir("/dev/shm")) - shm_before == set()
    assert _benchmark_processes() - processes_before == set()
