"""The traced run: one round replayed *decomposed*, layer by layer.

For each scheduled op the harness itself calls the public functions of the
layers in the order the façade would (parse → lifted, or ``safe_plan`` →
execute, or lineage → ``DPLLCounter.run`` / ``compile_decision_dnnf`` →
``differentiate``, or a scenario's ``posterior``; for a served op also
``decode_request`` → ``MethodLadder.evaluate`` → ``encode`` next to the real
wire call), recording a span around each call and counter deltas at the same
boundaries. Nothing is added inside ``src/``; spans are kept in memory and
written to ``perfbench/out/trace_<workload>.jsonl`` at the end.

A workload's traced run measures the layers that workload exercises; the
other per-layer metrics read 0 there. A traced suite covers every metric.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro import EngineSession, Method
from repro.booleans.forms import to_dnf
from repro.condition import ScenarioManager
from repro.booleans.kernel import kernel_statistics
from repro.kc.differentiate import differentiate
from repro.lifted.engine import LiftedEngine
from repro.lifted.errors import NonLiftableError, UnsupportedQueryError
from repro.lineage.build import lineage_of_cq, lineage_of_ucq
from repro.logic.cq import ConjunctiveQuery
from repro.obs import MetricsRegistry
from repro.plans.plan import project_boolean
from repro.plans.safe_plan import safe_plan
from repro.plans.vectorized import execute_boolean_columnar, seed_scan_cache
from repro.relational import columnar
from repro.relational.io import load_tid
from repro.relational.shm import attach, publish
from repro.server import MethodLadder, decode_request, encode, http_get
from repro.wmc.dpll import DPLLCounter, compile_decision_dnnf
from repro.wmc.karp_luby import karp_luby

from . import harness
from .estimators import percentile, replicate_spread, self_times
from .metrics import PER_LAYER
from .targets import ENGINE_SEED, LibTarget, Outcome, ServerProcess, ServeTarget, tree_cpu_seconds
from .workloads import EXACT_TOL, SAMPLED_EPSILON

Op = Dict[str, Any]
Metric = Dict[str, Any]


class Tracer:
    """Spans in memory: name, start, end, parent, op id, counts."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    # -- aggregation -------------------------------------------------------

    def named(self, name: str) -> List[Dict[str, Any]]:
        return [span for span in self.spans if span["name"] == name]

    def mean_count(self, name: str, key: str) -> Optional[float]:
        values = [span["counts"][key] for span in self.named(name) if key in span["counts"]]
        return sum(values) / len(values) if values else None

    def ratio(self, name: str, numerator: str, denominator: str) -> Optional[float]:
        spans = self.named(name)
        total = sum(span["counts"].get(denominator, 0) for span in spans)
        if not total:
            return None
        return sum(span["counts"].get(numerator, 0) for span in spans) / total


# -- decomposing one op ----------------------------------------------------------


@dataclass
class LayerContext:
    """What the decomposition needs to mirror the façade's own memoization."""

    target: LibTarget
    tracer: Tracer
    encoded_version: int = -1
    encoded: Dict[str, Any] = field(default_factory=dict)
    fingerprinted_version: int = -1

    def ensure_encoded(self, predicates: Sequence[str]) -> None:
        """Scan-encode what a plan reads, once per database version, as the
        columnar executor's memo would — but in a span of its own."""
        tid = self.target.tid
        if self.encoded_version != tid.version:
            self.encoded_version, self.encoded = tid.version, {}
        missing = [p for p in predicates if p not in self.encoded and p in tid.relations]
        if not missing:
            return
        with self.tracer.span("relational.encode"):
            for predicate in missing:
                self.encoded[predicate] = columnar.from_relation(tid.relations[predicate])
        seed_scan_cache(tid, self.encoded)

    def ensure_fingerprinted(self) -> None:
        """The first lookup after a write re-hashes the database."""
        tid = self.target.tid
        if self.fingerprinted_version != tid.version:
            with self.tracer.span("core.fingerprint"):
                tid.fingerprint()
            self.fingerprinted_version = tid.version


def _ground(ctx: LayerContext, parsed: Any) -> Any:
    with ctx.tracer.span("lineage.ground") as span:
        build = lineage_of_cq if isinstance(parsed, ConjunctiveQuery) else lineage_of_ucq
        lineage = build(parsed, ctx.target.tid)
        span["counts"]["vars"] = lineage.variable_count
    return lineage


def _parse(ctx: LayerContext, query: str) -> Any:
    with ctx.tracer.span("logic.parse"):
        return ctx.target.session.pdb.parse_query(query)


def decompose(ctx: LayerContext, op: Op) -> Optional[float]:
    """Answer *op* by calling the layers directly; returns the probability."""
    tracer, target = ctx.tracer, ctx.target
    tid = target.tid
    kind = op["kind"]
    if kind in ("add_fact", "set_fact"):
        relation, values, probability = op["fact"]
        with tracer.span("core.update"):
            if kind == "add_fact":
                tid.add_fact(relation, tuple(values), probability)
            else:
                tid.set_fact(relation, tuple(values), probability)
        return None
    if kind == "posterior":
        with tracer.span("condition.posterior"):
            scenario = target.manager.resolve(target.scenario_ids[op["scenario"]])
            return scenario.posterior(op["query"]).probability
    if kind == "whatif":
        with tracer.span("condition.whatif"):
            scenario = target.manager.derived(target.scenario_ids[op["scenario"]], op["force"])
            return scenario.posterior(op["query"]).probability
    if op["cls"] == "hit_read":
        # A hit cannot be taken apart from outside: make sure the entry is
        # there (untimed), then time the façade's own lookup.
        target.session.query(op["query"], Method(op["method"]))
        with tracer.span("engine.hit"):
            return target.session.query(op["query"], Method(op["method"])).probability

    ctx.ensure_fingerprinted()
    parsed = _parse(ctx, op["query"])
    if kind == "tuple_posteriors":
        lineage = _ground(ctx, parsed)
        probabilities = lineage.probabilities()
        with tracer.span("kc.compile") as span:
            compiled = compile_decision_dnnf(lineage.expr, probabilities)
            span["counts"]["nodes"] = compiled.circuit.size()
        with tracer.span("kc.differentiate"):
            reports = differentiate(compiled.circuit, probabilities)
        relation, values = op["fact"]
        index = lineage.pool.var_of_fact[(relation, tuple(values))]
        return reports[index].posterior
    if op.get("method") == "safe-plan":
        ctx.ensure_encoded([atom.predicate for atom in parsed.atoms])
        with tracer.span("plans.build"):
            plan = safe_plan(parsed, tid)
        with tracer.span("plans.exec") as span:
            profile: List[Any] = []
            probability = execute_boolean_columnar(project_boolean(plan), tid, profile=profile)
            span["counts"]["rows_out"] = sum(o.rows_out for o in profile)
        return probability
    if "rung" not in op:
        # AUTO: lifted first, else ground + DPLL. (A served op skips this:
        # after the warm-up round the ladder knows the query is not
        # liftable and goes straight to grounding.)
        with tracer.span("lifted.eval"):
            try:
                return LiftedEngine(tid, record_trace=True).probability(parsed)
            except (NonLiftableError, UnsupportedQueryError):
                pass
    lineage = _ground(ctx, parsed)
    probabilities = lineage.probabilities()
    if op.get("deadline_ms") is not None:
        with tracer.span("wmc.kl") as span:
            estimate = karp_luby(
                to_dnf(lineage.expr),
                probabilities,
                epsilon=SAMPLED_EPSILON,
                delta=0.05,
                rng=random.Random(ENGINE_SEED),
            )
            span["counts"]["samples"] = estimate.samples
        return estimate.estimate
    with tracer.span("wmc.dpll") as span:
        before = kernel_statistics()
        result = DPLLCounter().run(lineage.expr, probabilities)
        after = kernel_statistics()
        stats = result.statistics
        span["counts"].update(
            shannon=stats.shannon_expansions,
            calls=stats.calls,
            cache_hits=stats.cache_hits,
            cofactor_hits=stats.cofactor_memo_hits,
            cofactor_lookups=stats.cofactor_memo_hits + stats.cofactor_memo_misses,
            nodes=after.intern_misses - before.intern_misses,
        )
    return result.probability


# -- one decomposed round ---------------------------------------------------------


@dataclass
class PassResult:
    tracer: Tracer
    wall_s: float
    mismatches: List[str]
    #: Metrics the pass measured directly rather than through spans.
    extra: Dict[str, float] = field(default_factory=dict)


def _agree(got: Optional[float], want: Optional[float]) -> bool:
    """Two routes to the same answer: equal to 1e-9, sampled ones too (same
    seed, same sample stream)."""
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= EXACT_TOL


def lib_pass(prep: harness.Prepared, target: LibTarget, facade: Sequence[Outcome]) -> PassResult:
    """Replay the round decomposed; answers must equal the façade's."""
    harness._reset_lib(prep, target)
    tracer = Tracer()
    ctx = LayerContext(target, tracer)
    mismatches: List[str] = []
    ops = prep.schedule.callers[0]
    start = time.perf_counter()
    for index, (op, reference) in enumerate(zip(ops, facade)):
        tracer.op = index
        with tracer.span(f"op.{op['cls']}"):
            probability = decompose(ctx, op)
        if not _agree(probability, reference.probability):
            mismatches.append(f"{op['cls']} {op.get('query')!r}: layers {probability}, façade {reference.probability}")
    return PassResult(tracer, time.perf_counter() - start, mismatches)


def serve_pass(
    prep: harness.Prepared, server: ServerProcess, target: ServeTarget, local: LibTarget
) -> PassResult:
    """The first connection's ops, each over the wire (unloaded) next to its
    layer decomposition in this process; then the same requests through
    ``decode_request`` → ``MethodLadder.evaluate`` → ``encode`` in this
    process. Two loops, so that each sees the kernel memos evolve as the
    server's do instead of inheriting the other's work on the same lineage.
    """
    harness.reset_serve(prep, target)
    local.session.invalidate()
    tracer = Tracer()
    ctx = LayerContext(local, tracer)
    mismatches: List[str] = []
    overheads: List[float] = []
    ops = prep.schedule.callers[0]
    wire: List[Outcome] = []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        tracer.op = index
        with tracer.span(f"op.{op['cls']}"):
            with tracer.span("server.wire") as span:
                outcome = target.run(op)
        wire.append(outcome)
        if outcome.elapsed_ms is not None and not outcome.coalesced:
            overheads.append((span["end"] - span["start"]) * 1e3 - outcome.elapsed_ms)
        with tracer.span(f"local.{op['cls']}"):
            layered = decompose(ctx, op)
        if not _agree(layered, outcome.probability):
            mismatches.append(f"{op['cls']} {op['query']!r}: layers {layered}, wire {outcome.probability}")

    local.session.invalidate()
    ladder = MethodLadder(local.session)
    for index, (op, outcome) in enumerate(zip(ops, wire)):
        tracer.op = index
        line = encode(target.payload(op))
        with tracer.span(f"local.{op['cls']}"):
            with tracer.span("server.decode"):
                request = decode_request(line)
            with tracer.span(f"server.ladder.{op['cls']}"):
                scenario = None
                if request.scenario is not None:
                    sid = local.scenario_ids[op["scenario"]]
                    scenario = (
                        local.manager.derived(sid, dict(request.force))
                        if request.force
                        else local.manager.resolve(sid)
                    )
                answer = ladder.evaluate(
                    request.query,
                    method=request.method,
                    deadline_s=request.deadline_ms / 1e3 if request.deadline_ms is not None else None,
                    scenario=scenario,
                    scenario_id=request.scenario,
                )
            with tracer.span("server.encode"):
                encode(answer.to_payload())
        if not _agree(answer.probability, outcome.probability) or answer.rung != outcome.rung:
            mismatches.append(
                f"{op['cls']} {op['query']!r}: in-process ladder {answer.probability} "
                f"({answer.rung}), wire {outcome.probability} ({outcome.rung})"
            )
    wall = time.perf_counter() - start
    with tracer.span("obs.scrape"):
        http_get("127.0.0.1", server.port, "/metrics")
    extra = {"server.frontdoor_overhead_ms": sum(overheads) / len(overheads)}
    return PassResult(tracer, wall, mismatches, extra)


# -- from spans and rounds to metrics ----------------------------------------------

#: metric → (span, count recorded on it); the mean over the spans.
_COUNTS = {
    "plans.rows_out_per_op": ("plans.exec", "rows_out"),
    "lineage.vars_per_op": ("lineage.ground", "vars"),
    "booleans.unique_nodes_per_op": ("wmc.dpll", "nodes"),
    "wmc.shannon_expansions_per_op": ("wmc.dpll", "shannon"),
    "wmc.kl_samples_per_op": ("wmc.kl", "samples"),
    "kc.circuit_nodes_per_op": ("kc.compile", "nodes"),
}
#: metric → (span, numerator, denominator); totals over the spans.
_RATIOS = {
    "booleans.cofactor_memo_hit_ratio": ("wmc.dpll", "cofactor_hits", "cofactor_lookups"),
    "wmc.component_cache_hit_ratio": ("wmc.dpll", "cache_hits", "calls"),
}


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Whatever per-layer metrics these spans hold samples for. A span named
    ``X`` feeds the metric ``X_ms``: its mean self time."""
    self_time = self_times(tracer.spans)
    calls = Counter(span["name"] for span in tracer.spans)
    mean_ms = {name: self_time[name] * 1e3 / count for name, count in calls.items()}
    out = {f"{name}_ms": value for name, value in mean_ms.items() if f"{name}_ms" in PER_LAYER}
    for metric, (name, key) in _COUNTS.items():
        value = tracer.mean_count(name, key)
        if value is not None:
            out[metric] = value
    for metric, (name, numerator, denominator) in _RATIOS.items():
        value = tracer.ratio(name, numerator, denominator)
        if value is not None:
            out[metric] = value
    if "server.decode" in mean_ms:
        out["server.protocol_ms"] = mean_ms["server.decode"] + mean_ms["server.encode"]
        # The class p50 sits in; the other classes are in the span file.
        out["server.ladder_ms"] = mean_ms["server.ladder.cold_exact"]
    return out


def layer_sum_gap_pct(result: PassResult, waited_s: float) -> float:
    """How far the evaluation layers' self times fall short of what the
    caller waited: the façade's op latencies for a library workload, the
    unloaded wire latencies for a served one (there the gap is the front
    door, the ladder and, in processes mode, the IPC)."""
    self_time = self_times(result.tracer.spans)
    layers = sum(
        seconds
        for name, seconds in self_time.items()
        if not name.startswith(("op.", "local.", "server.", "obs."))
    )
    return 100.0 * (waited_s - layers) / waited_s


def storage_pass(
    csv_paths: Sequence[str], scenarios: Sequence[Sequence[str]], shm: bool
) -> Tracer:
    """CSV load and scenario install, each in a span; with *shm* (processes
    mode) shared-memory publish and attach too."""
    tracer = Tracer()
    with tracer.span("relational.csv_load"):
        tid = load_tid(csv_paths)
    if shm:
        with tracer.span("relational.shm_publish"):
            shards = publish(tid)
        try:
            with tracer.span("relational.shm_attach"):
                attached = attach(shards.handle)
            attached.close()
        finally:
            shards.unlink()
            # ``publish`` started multiprocessing's resource tracker in this
            # process. The benchmark must have stopped, and waited for, every
            # process it started before it exits; the tracker would exit on
            # its own only after that, and only this (private) call waits
            # for it.
            stop = getattr(resource_tracker._resource_tracker, "_stop", None)
            if stop is not None:
                stop()
    manager = ScenarioManager(EngineSession(tid, seed=ENGINE_SEED).pdb, registry=MetricsRegistry())
    for specs in scenarios:
        with tracer.span("condition.install"):
            manager.install(specs)
    return tracer


def facade_metrics(prep: harness.Prepared, measured: harness.Measured) -> Dict[str, float]:
    """Ratios read off the last untraced round's own outcomes."""
    assert measured.last_round is not None
    flat = measured.last_round.flat(prep.schedule.callers)
    out: Dict[str, float] = {}
    lookups = [outcome for _, _, outcome in flat if outcome.cache_hit is not None]
    if lookups:
        out["engine.answer_hit_ratio"] = sum(o.cache_hit for o in lookups) / len(lookups)
        out["engine.evictions_per_kop"] = 1e3 * measured.rounds[-1]["evictions"] / len(flat)
    misses, after_unread = 0, 0
    last_write: Optional[str] = None
    for op, _, outcome in flat:
        if op["kind"] in ("add_fact", "set_fact"):
            last_write = op["fact"][0]
        elif outcome.cache_hit is False and last_write is not None:
            misses += 1
            after_unread += last_write == "Audit"
    if misses:
        out["engine.unread_write_miss_share"] = after_unread / misses
    if prep.spec.driver == "serve":
        latencies = [latency * 1e3 for _, latency, _ in flat]
        hot = [latency * 1e3 for op, latency, _ in flat if op["cls"] == "hot"]
        out["server.hot_p50_ms"] = percentile(hot, 50)
        out["server.loaded_p99_ms"] = percentile(latencies, 99)
        answered = [outcome for _, _, outcome in flat if outcome.error is None]
        out["server.rung_share.exact"] = sum(o.rung == "exact" for o in answered) / len(flat)
        out["server.rung_share.sampled"] = sum(o.rung == "sampled" for o in answered) / len(flat)
        out["server.coalesced_share"] = sum(o.coalesced for o in answered) / len(flat)
    return out


def server_metrics(server: ServerProcess) -> Dict[str, float]:
    """What ``/metrics`` and ``/proc`` say about the live server."""
    text = http_get("127.0.0.1", server.port, "/metrics")
    overloaded = [line.split()[1] for line in text.splitlines() if line.startswith("server_overloaded_total ")]
    out = {"server.overloaded_count": float(overloaded[0]) if overloaded else 0.0}
    if server.mode == "processes":
        # /metrics merges worker counters into sums, so the split of the
        # work is read off each worker's own CPU time instead. The server's
        # children are its workers and multiprocessing's resource tracker,
        # which uses next to no CPU.
        busy = sorted(tree_cpu_seconds([pid]) for pid in server.pids[1:])[-2:]
        if len(busy) == 2 and busy[0] > 0:
            out["server.worker_imbalance"] = busy[1] / busy[0]
    return out


# -- entry point --------------------------------------------------------------------


def trace(
    prep: harness.Prepared,
    measured: harness.Measured,
    target: Optional[LibTarget] = None,
    server: Optional[ServerProcess] = None,
    targets: Sequence[ServeTarget] = (),
) -> Dict[str, Metric]:
    """The traced run of one workload: replay its round decomposed, write
    the span file, return every per-layer metric. *measured* holds the
    untraced reference rounds of the same run. A layer the workload does not
    exercise has no span and reads 0."""
    assert measured.last_round is not None
    metrics = facade_metrics(prep, measured)
    if server is None:
        assert target is not None
        result = lib_pass(prep, target, measured.last_round.outcomes[0])
        waited = sum(latency for lats in measured.last_round.latencies for latency in lats)
    else:
        metrics.update(server_metrics(server))
        local = LibTarget(prep.csv_paths, prep.schedule.scenarios)
        result = serve_pass(prep, server, targets[0], local)
        waited = sum(s["end"] - s["start"] for s in result.tracer.named("server.wire"))
    storage = storage_pass(
        prep.csv_paths, prep.schedule.scenarios, shm=prep.spec.server_mode == "processes"
    )
    metrics.update(span_metrics(result.tracer))
    metrics.update(span_metrics(storage))
    metrics.update(result.extra)
    reference_wall = measured.rounds[-1]["wall_s"]
    metrics["harness.round_spread_pct"] = 100.0 * replicate_spread(
        [r["throughput_ops_s"] for r in measured.rounds],
        len(measured.setups_s) // len(measured.rounds) if server is None else 1,
    )
    # For a served workload the traced pass also takes every op through the
    # ladder and the layers in this process, on one connection: this is the
    # cost of the traced pass, not of recording spans alone.
    metrics["harness.trace_overhead_pct"] = 100.0 * (result.wall_s - reference_wall) / reference_wall
    metrics["harness.layer_sum_gap_pct"] = layer_sum_gap_pct(result, waited)

    with (prep.out / f"trace_{prep.spec.name}.jsonl").open("w") as handle:
        for span in result.tracer.spans + storage.spans:
            handle.write(json.dumps(span) + "\n")
    if result.mismatches:
        measured.failures += result.mismatches[:5]
        measured.setup_ok = False
    return {
        name: {"value": metrics.get(name, 0.0), "unit": unit, "exercised": name in metrics}
        for name, (unit, _) in PER_LAYER.items()
    }
