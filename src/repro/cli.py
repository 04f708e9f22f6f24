"""Command-line interface: ``python -m repro``.

Subcommands:

* ``query``     — load relations from CSV files and evaluate a Boolean query;
* ``batch``     — evaluate many queries through a caching ``EngineSession``;
* ``serve``     — serve queries over TCP/HTTP from one shared session;
* ``condition`` — condition on a constraint set Γ and explore the scenario;
* ``safety``    — decide the dichotomy side of a CQ/UCQ from syntax alone;
* ``demo``      — run the built-in Figure 1 demonstration.

Examples::

    python -m repro query data/R.csv data/S.csv -q "R(x), S(x,y)"
    python -m repro query data/*.csv -q "forall x. forall y. (S(x,y) -> R(x))"
    python -m repro query data/*.csv -q "R(x), S(x,y)" --stats --seed 7
    python -m repro query data/*.csv -q "R(2)" --scenario "+R(1); S(x,y), T(y)"
    python -m repro batch data/*.csv -q "R(x), S(x,y)" -q "T(y), S(x,y)" --stats
    python -m repro serve data/*.csv --port 7077 --deadline-ms 100 --stats
    python -m repro condition data/*.csv -c "+R(1); S(x,y), T(y)" -q "R(2)" \
        --force "R(2)=true" --top-k 3 --facts
    python -m repro safety -q "R(x), S(x,y), T(y)"
    python -m repro demo
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core.pdb import Method, ProbabilisticDatabase
from .engine.session import EngineSession
from .lifted.safety import decide_safety
from .logic.cq import parse_cq, parse_ucq
from .relational.io import load_tid
from .workloads.generators import figure1_database


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="prodb: probabilistic database engine "
        "(reproduction of 'Probabilistic Databases for All', PODS 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="evaluate a Boolean query over CSV relations")
    query.add_argument("files", nargs="+", help="CSV files, one relation each")
    query.add_argument("-q", "--query", required=True, help="query text")
    query.add_argument(
        "-m",
        "--method",
        default="auto",
        choices=[m.value for m in Method],
        help="inference route (default: auto)",
    )
    query.add_argument(
        "--explain", action="store_true", help="print the derivation trace"
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage wall times (parse / lineage / compile / count) "
        "and, for grounded routes, Boolean-kernel counters",
    )
    query.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed for the approximate routes (reproducible estimates)",
    )
    query.add_argument(
        "--scenario",
        default=None,
        metavar="CONSTRAINTS",
        help="condition the answer on Γ: ';'-separated constraint specs "
        "(+R(1) assert, -R(1) deny, Q require, !Q forbid); prints P(Q|Γ)",
    )

    batch = sub.add_parser(
        "batch",
        help="evaluate many queries through a caching engine session",
    )
    batch.add_argument("files", nargs="+", help="CSV files, one relation each")
    batch.add_argument(
        "-q",
        "--query",
        action="append",
        required=True,
        dest="queries",
        help="query text (repeatable)",
    )
    batch.add_argument(
        "-m",
        "--method",
        default="auto",
        choices=[m.value for m in Method],
        help="inference route (default: auto)",
    )
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="evaluate the query list N times (repeats hit the cache)",
    )
    batch.add_argument(
        "--cache-size", type=int, default=256, help="session cache entries"
    )
    batch.add_argument(
        "--stats", action="store_true", help="print the session report"
    )
    batch.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed for the approximate routes (reproducible estimates)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve queries over TCP (NDJSON) and HTTP from one shared session",
    )
    serve.add_argument(
        "files",
        nargs="*",
        help="CSV files, one relation each (omit with --demo)",
    )
    serve.add_argument(
        "--demo",
        action="store_true",
        help="serve the built-in Figure 1 database instead of CSV files",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7077, help="bind port (0: pick a free one)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="evaluation workers (threads, or processes with --mode processes)",
    )
    serve.add_argument(
        "--mode",
        choices=("threads", "processes"),
        default="threads",
        help=(
            "evaluation backend: 'threads' shares one session; 'processes' "
            "publishes the database as shared-memory shards and routes to "
            "worker processes by consistent hashing"
        ),
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission bound: computations in flight before shedding load",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default degradation deadline per request (ladder falls back "
        "to bounds/sampling when exact inference will not fit)",
    )
    serve.add_argument(
        "--timeout-s",
        type=float,
        default=30.0,
        help="hard per-request timeout (default: 30)",
    )
    serve.add_argument(
        "--epsilon",
        type=float,
        default=0.2,
        help="default relative error for the sampled rung (default: 0.2)",
    )
    serve.add_argument(
        "--delta",
        type=float,
        default=0.05,
        help="default failure probability for the sampled rung (default: 0.05)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed threaded into every sampling rung (reproducible serves)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, help="session cache entries"
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable request coalescing and answer caching (benchmark baseline)",
    )
    serve.add_argument(
        "--no-restart-workers",
        action="store_true",
        help="do not respawn crashed worker processes (--mode processes)",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="log a one-line traffic summary every --stats-interval seconds",
    )
    serve.add_argument(
        "--stats-interval",
        type=float,
        default=10.0,
        help="seconds between --stats log lines (default: 10)",
    )

    condition = sub.add_parser(
        "condition",
        help="condition on a constraint set and explore what-if scenarios",
    )
    condition.add_argument("files", nargs="+", help="CSV files, one relation each")
    condition.add_argument(
        "-c",
        "--constraints",
        required=True,
        help="';'-separated constraint specs: +R(1) asserts a fact, -R(1) "
        "denies it, a Boolean query requires it true, !Q forbids it",
    )
    condition.add_argument(
        "-q",
        "--query",
        action="append",
        dest="queries",
        default=[],
        help="query whose posterior P(Q|Γ) to print (repeatable)",
    )
    condition.add_argument(
        "--force",
        action="append",
        default=[],
        metavar="FACT=BOOL",
        help="what-if evidence, e.g. --force 'R(2)=true' (repeatable); "
        "pins those facts in the compiled scenario instead of recompiling",
    )
    condition.add_argument(
        "--top-k",
        type=int,
        default=0,
        metavar="K",
        help="print the K most probable worlds given Γ",
    )
    condition.add_argument(
        "--facts",
        action="store_true",
        help="print posterior marginals P(f|Γ) for constraint-relevant facts",
    )
    condition.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed for the approximate routes (reproducible estimates)",
    )

    safety = sub.add_parser("safety", help="decide PTIME vs #P-hard from syntax")
    safety.add_argument("-q", "--query", required=True, help="CQ or UCQ shorthand")

    sub.add_parser("demo", help="run the Figure 1 demonstration")
    return parser


def _cmd_query(args: argparse.Namespace) -> int:
    pdb = ProbabilisticDatabase(tid=load_tid(args.files), seed=args.seed)
    if args.scenario is not None:
        from .condition import ConditionedScenario

        scenario = ConditionedScenario.compile(pdb, args.scenario)
        answer = scenario.posterior(args.query)
        print(f"P(Q | Γ)    : {answer.probability:.10g}")
        print(f"P(Γ)        : {answer.gamma_probability:.10g}")
        print(f"method      : {answer.method}")
        print(f"exact       : {answer.exact}")
        if answer.detail:
            print(f"detail      : {answer.detail}")
        return 0
    if args.explain:
        print(pdb.explain(args.query))
        return 0
    answer = pdb.probability(args.query, Method(args.method))
    print(f"probability : {answer.probability:.10g}")
    print(f"method      : {answer.method.value}")
    print(f"exact       : {answer.exact}")
    if answer.detail:
        print(f"detail      : {answer.detail}")
    if args.stats and answer.stats is not None:
        if answer.stats.reason:
            print(f"reason      : {answer.stats.reason}")
        print(f"stage times : {answer.stats.summary()}")
        for line in answer.stats.operator_summary():
            print(f"  {line}")
        if answer.stats.counters:
            print(f"kernel      : {answer.stats.counter_summary()}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.repeat < 1:
        print("--repeat must be at least 1", file=sys.stderr)
        return 2
    if args.cache_size < 1:
        print("--cache-size must be at least 1", file=sys.stderr)
        return 2
    session = EngineSession(
        load_tid(args.files), cache_size=args.cache_size, seed=args.seed
    )
    queries = list(args.queries) * args.repeat
    method = Method(args.method)
    answers = [session.query(query, method) for query in queries]
    for query, answer in zip(queries, answers):
        served = "cached" if answer.stats and answer.stats.cache_hit else answer.method.value
        print(f"P({query}) = {answer.probability:.10g}  [{served}]")
    if args.stats:
        print(session.report())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .obs import get_registry
    from .server import QueryServer, ServerConfig

    if args.demo:
        if args.files:
            print("--demo and CSV files are mutually exclusive", file=sys.stderr)
            return 2
        tid = figure1_database()
    elif args.files:
        tid = load_tid(args.files)
    else:
        print("give CSV files to serve, or --demo", file=sys.stderr)
        return 2
    session = EngineSession(tid, cache_size=args.cache_size, seed=args.seed)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        mode=args.mode,
        max_pending=args.max_pending,
        coalesce=not args.no_coalesce,
        default_deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        request_timeout_s=args.timeout_s,
        default_epsilon=args.epsilon,
        default_delta=args.delta,
        restart_workers=not args.no_restart_workers,
    )

    async def _run() -> None:
        server = QueryServer(session, config)
        await server.start()
        print(f"listening on {args.host}:{server.port}", flush=True)

        stats_task: Optional[asyncio.Task] = None
        if args.stats:
            registry = get_registry()

            async def _log_stats() -> None:
                while True:
                    await asyncio.sleep(args.stats_interval)
                    snapshot = registry.snapshot()
                    latency = registry.histogram(
                        "server_request_seconds",
                        "request wall time, admission to response",
                    )
                    print(
                        "stats: "
                        f"requests={int(snapshot.get('server_requests_total', 0))} "
                        f"coalesced={int(snapshot.get('server_coalesced_total', 0))} "
                        f"overloaded={int(snapshot.get('server_overloaded_total', 0))} "
                        f"errors={int(snapshot.get('server_errors_total', 0))} "
                        f"inflight={int(snapshot.get('server_inflight', 0))} "
                        f"latency[{latency.summary()}]",
                        flush=True,
                    )

            stats_task = asyncio.get_running_loop().create_task(_log_stats())
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - signal path
            pass
        finally:
            if stats_task is not None:
                stats_task.cancel()
            await server.shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        # A second Ctrl-C during the drain aborts it; the first is handled
        # by asyncio cancelling _run, which drains before returning.
        pass
    # serve_forever only ends via Ctrl-C/SIGINT, and _run drains on the
    # way out — so reaching this line means a clean shutdown either way.
    print("interrupt: drained in-flight requests, shut down cleanly")
    return 0


def _parse_force(pairs: Sequence[str]) -> dict:
    force = {}
    for pair in pairs:
        spec, eq, raw = pair.partition("=")
        value = raw.strip().lower()
        if not eq or value not in ("true", "false", "1", "0"):
            raise ValueError(
                f"--force needs FACT=true|false, got {pair!r}"
            )
        force[spec.strip()] = value in ("true", "1")
    return force


def _fmt_fact(fact: object) -> str:
    if isinstance(fact, tuple) and len(fact) == 2 and isinstance(fact[1], tuple):
        name, values = fact
        return f"{name}({', '.join(str(v) for v in values)})"
    return str(fact)


def _cmd_condition(args: argparse.Namespace) -> int:
    from .condition import ConditionedScenario

    pdb = ProbabilisticDatabase(tid=load_tid(args.files), seed=args.seed)
    scenario = ConditionedScenario.compile(pdb, args.constraints)
    print(f"P(Γ) = {scenario.gamma_probability:.10g}  "
          f"[{len(scenario.constraints)} constraints]")
    if args.force:
        scenario = scenario.whatif(_parse_force(args.force))
        print(f"what-if: P(Γ') = {scenario.gamma_probability:.10g}  "
              f"(forced: {', '.join(args.force)})")
    for text in args.queries:
        answer = scenario.posterior(text)
        print(f"P({text} | Γ) = {answer.probability:.10g}")
    if args.facts:
        print("posterior marginals:")
        for fact, report in sorted(
            scenario.fact_posteriors().items(), key=lambda kv: str(kv[0])
        ):
            print(
                f"  {_fmt_fact(fact)}: prior={report.prior:.6g} "
                f"posterior={report.posterior:.6g} "
                f"influence={report.influence:.6g}"
            )
    if args.top_k > 0:
        print(f"top-{args.top_k} worlds given Γ:")
        for rank, candidate in enumerate(scenario.top_k_worlds(args.top_k), 1):
            facts = ", ".join(
                f"{'+' if present else '-'}{_fmt_fact(fact)}"
                for fact, present in sorted(
                    candidate.world.items(), key=lambda kv: str(kv[0])
                )
            )
            print(f"  #{rank}  posterior={candidate.posterior:.6g}  [{facts}]")
    return 0


def _cmd_safety(args: argparse.Namespace) -> int:
    text = args.query
    query = parse_ucq(text) if "|" in text else parse_cq(text)
    verdict = decide_safety(query)
    print(f"query      : {text}")
    print(f"complexity : {verdict.complexity.value}")
    if verdict.blocking_subquery:
        print(f"blocked on : {verdict.blocking_subquery}")
    if verdict.derivation is not None:
        print("derivation : ($n is the value a separator binds)")
        for line in verdict.derivation.lines():
            print(f"  {line}")
    return 0


def _cmd_demo(_: argparse.Namespace) -> int:
    pdb = ProbabilisticDatabase(
        tid=figure1_database((0.9, 0.5, 0.4), (0.8, 0.3, 0.7, 0.2, 0.6, 0.5))
    )
    print("Figure 1 database loaded (9 tuples, 2^9 possible worlds).")
    for text in (
        "R(x), S(x,y)",
        "forall x. forall y. (S(x,y) -> R(x))",
    ):
        answer = pdb.probability(text)
        print(f"  P({text}) = {answer.probability:.6f} [{answer.method.value}]")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "query": _cmd_query,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "condition": _cmd_condition,
        "safety": _cmd_safety,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # ``serve`` drains and returns 0 on Ctrl-C; for everything else the
        # conventional "killed by SIGINT" exit status, without a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except ValueError as error:
        # ParseError (malformed query text) and other input validation
        # failures surface as one line on stderr, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
