"""The five workloads: op classes, seeded schedules and expected answers.

A schedule is a list of JSON-serializable ops per caller, a pure function of
``(workload, seed, blocks)``. It is built from *blocks* of ``BLOCK`` ops with
a fixed number of slots per op class, so class shares are exact and every
round of a run — and every seed — sees the same mix. Each op carries the
answer the oracle in :mod:`datasets` expects for it.

Class shares are chosen so that, in order of latency, the 50th and the 95th
percentile both fall well inside one class: a percentile that sits on the
cliff between a 0.5 ms class and a 7 ms class flips between the two from
run to run, and a sub-millisecond class cannot be timed over TCP on a
shared 2-core box at all (see README, "noise rules").
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .datasets import (
    Family,
    Scenario,
    SweepDB,
    make_families,
    make_scenarios,
    make_sweep_db,
    write_csvs,
)

BLOCK = 10
#: What the block counts below size a round to on the reference box.
ROUND_SECONDS = 2.5
#: The default ``--seconds`` (``run_seconds`` in BENCHMARK.json): six rounds.
BASE_SECONDS = 15
QUICK_ROUNDS = 2

#: ``sweep_db`` size. The issue sketched 2 000 x-values; at that size one
#: lifted evaluation costs 150 ms and a 2.5 s round cannot hold the ten
#: samples beyond p95 that the percentile needs. 1 200 (8 400 facts) is
#: still well above ``COLUMNAR_AUTO_THRESHOLD`` (5 000).
SWEEP_N = 1200
FAMILY_COUNT = 540
SCENARIO_COUNT = 10
HOT_COUNT = 20
UPDATE_FAMILIES = 10
UPDATE_HOT_SAFE = 5

#: Flush queries per reset. Each is a distinct two-atom CQ answered by the
#: ``dpll`` route in well under a millisecond and leaves a parse, a lineage
#: and an answer entry behind: 900 entries against the default 256-entry
#: LRU, so each of two workers is flushed even when the consistent-hash
#: ring splits the keys 40/60.
FLUSH_QUERIES = 300

EXACT_TOL = 1e-9
#: The server's default error budget for the sampled rung (relative ε).
SAMPLED_EPSILON = 0.2
#: A deadline no rung but the last can meet: ``MethodLadder._fits`` refuses
#: a rung once the remaining budget is ≤ 0, and 100 ns have always passed.
DEGRADED_DEADLINE_MS = 0.0001

Op = Dict[str, Any]


@dataclass(frozen=True)
class OpClass:
    name: str
    slots: int  # per block of BLOCK ops
    nominal_ms: float  # typical latency on the reference box; orders classes


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    classes: Tuple[OpClass, ...]
    blocks: int  # per caller and round
    callers: int = 1
    #: ``--mode`` of the served workloads; None for the library ones.
    server_mode: Optional[str] = None
    #: Timed cold set-ups per run of a served workload. (A library workload
    #: sets up on every CPU before every round.)
    setups: int = 0
    #: Share of the schedule the untimed warm-up round replays. Workloads
    #: whose caches and scenarios reach a steady state only after a full
    #: pass warm up with all of it.
    warmup_share: float = 1.0

    @property
    def driver(self) -> str:
        return "lib" if self.server_mode is None else "serve"

    @property
    def setup_class(self) -> str:
        """The class of the op a cold set-up answers: the one the median
        falls in. (Whichever op a seed happens to schedule first would make
        ``setup_s`` depend on the seed: 2 or 80 ms on ``lib_extensional``.)"""
        return next(name for name, low, high in self.shares() if low < 50.0 < high)

    def shares(self) -> List[Tuple[str, float, float]]:
        """``(class, from, to)`` percentile ranges in order of latency."""
        out, cursor = [], 0.0
        for cls in sorted(self.classes, key=lambda c: c.nominal_ms):
            width = 100.0 * cls.slots / BLOCK
            out.append((cls.name, cursor, cursor + width))
            cursor += width
        return out


_SERVE_CLASSES = (
    OpClass("hot", 2, 0.6),
    OpClass("whatif", 1, 2.0),
    OpClass("conditioned", 1, 3.5),
    OpClass("cold_exact", 5, 4.5),
    OpClass("degraded", 1, 22.0),
)

SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "lib_extensional",
            "point-selected safe CQs, fresh constant each: answer cache always misses, "
            "plans/relational carry p50 and lifted p95; wmc and server do nothing",
            (OpClass("point_safe", 9, 1.8), OpClass("point_auto", 1, 80.0)),
            blocks=26,
            warmup_share=0.3,
        ),
        WorkloadSpec(
            "lib_intensional",
            "distinctly shaped 21-variable unsafe lineages, posteriors, what-if and tuple posteriors: "
            "lineage/booleans/wmc/kc/condition do the work, plans/lifted almost none",
            (
                OpClass("whatif", 1, 1.6),
                OpClass("posterior", 1, 3.0),
                OpClass("exact_cq", 6, 5.7),
                OpClass("tuple_posteriors", 1, 15.2),
                OpClass("exact_ucq", 1, 15.7),
            ),
            blocks=34,
        ),
        WorkloadSpec(
            "lib_update_mix",
            "1 write then 9 reads over a hot set: every write orphans every cached answer, "
            "so a cache/invalidation change that taxes writes or reads shows here",
            (
                OpClass("write", 1, 0.01),
                OpClass("hit_read", 2, 0.03),
                OpClass("recompute_safe", 3, 1.8),
                OpClass("recompute_unsafe", 3, 2.3),
                OpClass("first_read", 1, 13.0),
            ),
            blocks=90,
            warmup_share=0.3,
        ),
        WorkloadSpec(
            "serve_threads",
            "2 NDJSON connections against `repro serve` in threads mode: protocol, admission, "
            "ladder and GIL-shared evaluation; bypass for processes-mode changes",
            _SERVE_CLASSES,
            blocks=36,
            callers=2,
            server_mode="threads",
            setups=8,
        ),
        WorkloadSpec(
            "serve_procs",
            "the same traffic with --mode processes: adds shm publish/attach, ring routing, "
            "pickle/IPC and per-worker caches; bypass for threads-mode changes",
            _SERVE_CLASSES,
            blocks=36,
            callers=2,
            server_mode="processes",
            setups=4,
        ),
    )
}


@dataclass
class Schedule:
    workload: str
    seed: int
    blocks: int
    callers: List[List[Op]]
    #: Constraint specs per scenario, installed at set-up.
    scenarios: List[List[str]] = field(default_factory=list)
    #: Ops replayed outside the timed region to re-warm the hot set after
    #: the server's caches were flushed (serve workloads only).
    rewarm: List[Op] = field(default_factory=list)
    #: Cheap throw-away queries that push everything out of the LRU caches.
    flush: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "blocks": self.blocks,
            "callers": self.callers,
            "scenarios": self.scenarios,
            "rewarm": self.rewarm,
            "flush": self.flush,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def ops(self) -> List[Op]:
        return [op for caller in self.callers for op in caller]

    def first_op(self, cls: str) -> Op:
        """The first op of class *cls*: what a cold set-up must get right."""
        return next(op for op in self.callers[0] if op["cls"] == cls)


@dataclass
class Datasets:
    """What a workload's generator produced, for the oracle and the CSVs."""

    sweep: Optional[SweepDB] = None
    families: List[Family] = field(default_factory=list)

    def write(self, directory: Path) -> List[str]:
        relations: Dict[str, Any] = {}
        if self.sweep is not None:
            relations.update(self.sweep.relations())
        for family in self.families:
            relations.update(family.relations())
        return write_csvs(relations, directory)


def rounds_for(seconds: float, quick: bool) -> int:
    """``--seconds`` buys timed rounds; the schedule a round replays is fixed."""
    return QUICK_ROUNDS if quick else max(2, round(seconds / ROUND_SECONDS))


def blocks_for(spec: WorkloadSpec, quick: bool) -> int:
    return max(2, spec.blocks // 5) if quick else spec.blocks


def build(workload: str, seed: int, blocks: int) -> Tuple[Schedule, Datasets]:
    """The schedule and data sets of *workload* for *seed*."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    builder = {
        "lib_extensional": _build_extensional,
        "lib_intensional": _build_intensional,
        "lib_update_mix": _build_update_mix,
        "serve_threads": _build_serve,
        "serve_procs": _build_serve,
    }[workload]
    schedule, data = builder(SPECS[workload], seed, blocks, rng)
    return schedule, data


class _Slices:
    """Hands out consecutive slices of the families, each shuffled.

    Which families a class uses depends on the block count alone, never on
    the seed: a family's shape fixes what counting it costs, so every seed
    gives a class the same work in another order.
    """

    def __init__(self, families: Sequence[Family]):
        self._families, self._next = families, 0

    def take(self, count: int, rng: random.Random) -> List[Family]:
        chunk = list(self._families[self._next : self._next + count])
        if len(chunk) < count:
            raise ValueError("not enough families for this many blocks")
        self._next += count
        rng.shuffle(chunk)
        return chunk


def _block_labels(spec: WorkloadSpec, rng: random.Random) -> List[str]:
    labels = [cls.name for cls in spec.classes for _ in range(cls.slots)]
    rng.shuffle(labels)
    return labels


def _query_op(cls: str, query: str, expect: float, **extra: Any) -> Op:
    op: Op = {"cls": cls, "kind": "query", "query": query, "expect": expect, "tol": EXACT_TOL}
    op.update(extra)
    return op


# -- lib_extensional ------------------------------------------------------------


def _point(sweep: SweepDB, shape: str, index: int) -> Tuple[str, float]:
    if shape == "y":
        return f"R(x), S(x,'y{index}')", sweep.p_select_y(f"y{index}")
    return f"S('x{index}',y), T(y)", sweep.p_select_x(f"x{index}")


def _build_extensional(
    spec: WorkloadSpec, seed: int, blocks: int, rng: random.Random
) -> Tuple[Schedule, Datasets]:
    sweep = make_sweep_db(seed, n=SWEEP_N)
    fresh = {shape: rng.sample(range(SWEEP_N), SWEEP_N) for shape in "xy"}
    ops: List[Op] = []
    for _ in range(blocks):
        for label in _block_labels(spec, rng):
            shape = "y" if len(ops) % 2 == 0 else "x"
            query, expect = _point(sweep, shape, fresh[shape].pop())
            method = "safe-plan" if label == "point_safe" else "auto"
            ops.append(_query_op(label, query, expect, method=method))
    return Schedule(spec.name, seed, blocks, [ops]), Datasets(sweep=sweep)


# -- scenario ops shared by lib_intensional and serve_* --------------------------


def _fact_spec(scenario: Scenario, key: Tuple) -> str:
    return scenario.anchor.fact(*key)


def _posterior_op(
    cls: str, index: int, scenarios: Sequence[Scenario], pool: List[Family], rng: random.Random
) -> Op:
    """Alternately a single-fact posterior on a scenario's anchor and, on a
    ``forbid`` scenario, the CQ of an unrelated family popped from *pool*:
    independent of Γ, so its posterior is its prior, but counted as a
    conjunction with Γ all the same. (The same crossing against a
    ``require`` scenario costs anything from 5 to 200 ms depending on the
    family, which no latency class can hold.)"""
    if index % 2 == 0:
        number = (index // 2) % len(scenarios)
        scenario = scenarios[number]
        key = rng.choice(scenario.free_facts())
        query, expect = _fact_spec(scenario, key), scenario.fact_posterior(key)
    else:
        forbid = [i for i, s in enumerate(scenarios) if s.kind == "forbid"]
        number = forbid[(index // 2) % len(forbid)]
        other = pool.pop()
        query, expect = other.cq(), other.probability("cq")
    return _query_op(cls, query, expect, kind="posterior", scenario=number)


def _whatif_op(cls: str, index: int, scenarios: Sequence[Scenario], rng: random.Random) -> Op:
    """Force one free S-fact of the anchor in or out, then ask for the
    posterior of a free R- or T-fact: evidence and query are correlated
    through Γ, so a force that were ignored or mis-applied shows as a wrong
    answer. (Asking for the anchor's own query instead costs 1–400 ms
    depending on which fact is forced.)"""
    number = index % len(scenarios)
    scenario = scenarios[number]
    free = scenario.free_facts()
    forced = rng.choice([k for k in free if k[0] == "S"])
    asked = rng.choice([k for k in free if k[0] != "S"])
    value = rng.random() < 0.5
    return _query_op(
        cls,
        _fact_spec(scenario, asked),
        scenario.fact_posterior(asked, {forced: 1.0 if value else 0.0}),
        kind="whatif",
        scenario=number,
        force={_fact_spec(scenario, forced): value},
    )


# -- lib_intensional ------------------------------------------------------------


def _build_intensional(
    spec: WorkloadSpec, seed: int, blocks: int, rng: random.Random
) -> Tuple[Schedule, Datasets]:
    families = make_families(seed, FAMILY_COUNT)
    general, anchors = families[:-SCENARIO_COUNT], families[-SCENARIO_COUNT:]
    scenarios = make_scenarios(anchors)
    slices = _Slices(general)
    slots = {cls.name: cls.slots * blocks for cls in spec.classes}
    pools = {
        "exact_cq": slices.take(slots["exact_cq"], rng),
        "exact_ucq": slices.take(slots["exact_ucq"], rng),
        "tuple_posteriors": slices.take(slots["tuple_posteriors"], rng),
        "posterior": slices.take((slots["posterior"] + 1) // 2, rng),
    }
    ops: List[Op] = []
    counters = {"posterior": 0, "whatif": 0}
    for _ in range(blocks):
        for label in _block_labels(spec, rng):
            if label == "exact_cq":
                family = pools[label].pop()
                ops.append(_query_op(label, family.cq(), family.probability("cq"), method="auto"))
            elif label == "exact_ucq":
                family = pools[label].pop()
                ops.append(_query_op(label, family.ucq(), family.probability("ucq"), method="auto"))
            elif label == "tuple_posteriors":
                family = pools[label].pop()
                i = rng.randrange(len(family.r))
                ops.append(
                    _query_op(
                        label,
                        family.ucq(),
                        family.posterior_of_r(i, "ucq"),
                        kind="tuple_posteriors",
                        fact=[family.names[0], [f"c{i}"]],
                    )
                )
            elif label == "posterior":
                ops.append(
                    _posterior_op(label, counters["posterior"], scenarios, pools[label], rng)
                )
                counters["posterior"] += 1
            else:
                ops.append(_whatif_op(label, counters["whatif"], scenarios, rng))
                counters["whatif"] += 1
    schedule = Schedule(
        spec.name, seed, blocks, [ops], scenarios=[s.specs() for s in scenarios]
    )
    return schedule, Datasets(families=families)


# -- lib_update_mix -------------------------------------------------------------


def _build_update_mix(
    spec: WorkloadSpec, seed: int, blocks: int, rng: random.Random
) -> Tuple[Schedule, Datasets]:
    """Blocks of one write and nine reads over a hot set of ten queries.

    The reads of a block are: a first safe-plan read (pays the database
    re-hash and the scan re-encode the write caused), three more safe and
    three unsafe recomputes of distinct hot queries, and two repeats, which
    hit. All hot safe queries have the shape ``R(x), S(x,'y')`` so the first
    read re-encodes everything the later ones scan. Writes alternate between
    ``Audit`` (which nothing reads) and one ``S`` tuple that the first hot
    query does read, so a stale cached answer is a wrong answer.
    """
    sweep = make_sweep_db(seed, n=SWEEP_N)
    families = make_families(seed, UPDATE_FAMILIES)
    hot_y = [f"y{i}" for i in rng.sample(range(SWEEP_N), UPDATE_HOT_SAFE)]
    hot_families = rng.sample(families, UPDATE_HOT_SAFE)
    written = (sweep.partners_of_y[hot_y[0]][0], hot_y[0])
    original = sweep.s[written]
    toggled = round(1.0 - original, 6)
    unsafe_expect = {f.index: f.probability("cq") for f in hot_families}

    ops: List[Op] = []
    for block in range(blocks):
        if block % 2 == 0:
            ops.append(
                {"cls": "write", "kind": "add_fact", "fact": ["Audit", [f"a{block}"], 1.0]}
            )
        else:
            sweep.s[written] = toggled if sweep.s[written] == original else original
            ops.append(
                {"cls": "write", "kind": "set_fact", "fact": ["S", list(written), sweep.s[written]]}
            )

        def safe(cls: str, y: str) -> Op:
            return _query_op(
                cls, f"R(x), S(x,'{y}')", sweep.p_select_y(y), method="safe-plan"
            )

        def unsafe(family: Family) -> Op:
            return _query_op(
                "recompute_unsafe", family.cq(), unsafe_expect[family.index], method="auto"
            )

        first, *more_safe = rng.sample(hot_y, 4)
        rest = [safe("recompute_safe", y) for y in more_safe]
        rest += [unsafe(f) for f in rng.sample(hot_families, 3)]
        rng.shuffle(rest)
        reads = [safe("first_read", first)] + rest
        for _ in range(2):
            source = rng.randrange(len(reads))
            repeat = dict(reads[source], cls="hit_read")
            reads.insert(rng.randrange(source + 1, len(reads) + 1), repeat)
        ops.extend(reads)
    sweep.s[written] = original
    return Schedule(spec.name, seed, blocks, [ops]), Datasets(sweep=sweep, families=families)


# -- serve_threads / serve_procs -------------------------------------------------


def _build_serve(
    spec: WorkloadSpec, seed: int, blocks: int, rng: random.Random
) -> Tuple[Schedule, Datasets]:
    """Identical traffic for both serving modes (the mode is a server flag).

    Every connection draws its cold, degraded and scenario-crossing queries
    from its own slices of the families, each at most once per round; the
    hot set is shared. Between rounds the harness flushes the server's LRU
    caches with ``flush`` and replays ``rewarm``, so hot ops always hit and
    everything else always misses, whatever share of the traffic the
    consistent-hash ring happens to send to each worker.
    """
    families = make_families(seed, FAMILY_COUNT)
    anchors = families[-SCENARIO_COUNT:]
    hot = families[-SCENARIO_COUNT - HOT_COUNT : -SCENARIO_COUNT]
    general = families[: -SCENARIO_COUNT - HOT_COUNT]
    scenarios = make_scenarios(anchors)
    slices = _Slices(general)
    slots = {cls.name: cls.slots * blocks for cls in spec.classes}
    hot_ops = [_query_op("hot", f.cq(), f.probability("cq"), rung="exact") for f in hot]

    callers: List[List[Op]] = []
    for caller in range(spec.callers):
        # Its own stream per caller, so a caller's ops do not depend on how
        # many blocks the callers before it drew.
        rng = random.Random(f"perfbench/{spec.name}/{seed}/caller{caller}")
        pools = {
            "cold_exact": slices.take(slots["cold_exact"], rng),
            "degraded": slices.take(slots["degraded"], rng),
            "conditioned": slices.take((slots["conditioned"] + 1) // 2, rng),
        }
        # Callers start at different points of the hot set and of the
        # scenario list, so they rarely ask for the same thing at once.
        counters = {
            "hot": caller * (HOT_COUNT // spec.callers),
            "conditioned": caller * (SCENARIO_COUNT // 2),
            "whatif": caller * (SCENARIO_COUNT // 2),
        }
        ops: List[Op] = []
        for _ in range(blocks):
            for label in _block_labels(spec, rng):
                if label == "hot":
                    ops.append(dict(hot_ops[counters["hot"] % HOT_COUNT]))
                    counters["hot"] += 1
                elif label == "cold_exact":
                    family = pools[label].pop()
                    ops.append(_query_op(label, family.cq(), family.probability("cq"), rung="exact"))
                elif label == "degraded":
                    family = pools[label].pop()
                    expect = family.probability("cq")
                    ops.append(
                        _query_op(
                            label,
                            family.cq(),
                            expect,
                            rung="sampled",
                            tol=SAMPLED_EPSILON * expect,
                            deadline_ms=DEGRADED_DEADLINE_MS,
                        )
                    )
                elif label == "conditioned":
                    op = _posterior_op(label, counters["conditioned"], scenarios, pools[label], rng)
                    ops.append(dict(op, rung="exact"))
                    counters["conditioned"] += 1
                else:
                    op = _whatif_op(label, counters["whatif"], scenarios, rng)
                    ops.append(dict(op, rung="exact"))
                    counters["whatif"] += 1
        callers.append(ops)
    flush = [f"{f.names[0]}(x), {f.names[2]}(x)" for f in general[:FLUSH_QUERIES]]
    schedule = Schedule(
        spec.name,
        seed,
        blocks,
        callers,
        scenarios=[s.specs() for s in scenarios],
        rewarm=hot_ops,
        flush=flush,
    )
    return schedule, Datasets(families=families)


# -- golden files ----------------------------------------------------------------


def golden_of(schedule: Schedule) -> Dict[str, Any]:
    """The expected answer (and rung) per scheduled op, in schedule order."""
    return {
        "workload": schedule.workload,
        "seed": schedule.seed,
        "blocks": schedule.blocks,
        "callers": [
            [
                {"query": op.get("query"), "expect": op.get("expect"), "rung": op.get("rung")}
                for op in caller
            ]
            for caller in schedule.callers
        ],
    }


def apply_golden(schedule: Schedule, golden: Dict[str, Any]) -> None:
    """Replace the oracle's expectations by a golden file's.

    The file must have been generated for this very schedule (same seed,
    full length).
    """
    for ops, expected in zip(schedule.callers, golden["callers"]):
        if len(expected) != len(ops):
            raise ValueError("golden file does not match the schedule; regenerate it")
        for op, want in zip(ops, expected):
            if op.get("query") != want.get("query"):
                raise ValueError(
                    f"golden file does not match the schedule: {want.get('query')!r} "
                    f"where {op.get('query')!r} is scheduled; regenerate it"
                )
            op["expect"] = want["expect"]
            if want.get("rung") is not None:
                op["rung"] = want["rung"]
