"""CI smoke test for the serving layer.

Starts a real server on a background thread, round-trips queries over
both the NDJSON protocol and the HTTP shim — including one answer forced
down a degraded ladder rung — scrapes ``/metrics``, then shuts down
gracefully. Exits nonzero on any deviation.

Run as::

    PYTHONPATH=src python tools/server_smoke.py

Pass ``--workers N`` to smoke the multi-process mode instead: N worker
processes attached to shared-memory shards, with per-worker liveness on
``/healthz`` and ``server_worker_*`` gauges on ``/metrics``.
"""

from __future__ import annotations

import argparse
import sys


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="smoke the multi-process mode with N worker processes",
    )
    args = parser.parse_args()
    pooled = args.workers > 0

    from repro.engine.session import EngineSession
    from repro.server import ServerClient, ServerConfig, ServerThread, http_get
    from repro.workloads.generators import figure1_database

    session = EngineSession(figure1_database(), seed=7)
    # Two grounded (non-hierarchical) shapes for the DPLL call budget: a
    # 59-variable path A–B–C that DPLL counts in a few hundred calls, and a
    # complete 24-variable D–E–F whose ≈360 calls pass the budget at ε = 50.
    for i in range(15):
        session.add_fact("A", (i,), 0.5)
        session.add_fact("C", (i,), 0.6)
        session.add_fact("B", (i, i), 0.7)
        if i:
            session.add_fact("B", (i, i - 1), 0.4)
    for i in range(4):
        session.add_fact("D", (i,), 0.5)
        session.add_fact("F", (i,), 0.6)
        for j in range(4):
            session.add_fact("E", (i, j), 0.7)
    # Use the process-default registry so the scrape also shows the engine
    # counters SessionStats publishes (the smoke runs in its own process).
    config = ServerConfig(
        workers=args.workers if pooled else 2,
        mode="processes" if pooled else "threads",
        default_epsilon=0.3,
        default_delta=0.1,
    )

    with ServerThread(session, config) as server:
        host, port = server.host, server.port
        print(f"server up on {host}:{port} (mode={config.mode})")

        with ServerClient(host, port) as client:
            # 1. Exact answer via the ladder.
            exact = client.query("R(x), S(x,y)", id="smoke-1")
            if not exact.get("ok"):
                fail(f"exact query failed: {exact}")
            if exact.get("rung") != "exact" or not exact.get("exact"):
                fail(f"expected the exact rung: {exact}")
            if "guarantee" not in exact or exact.get("id") != "smoke-1":
                fail(f"missing guarantee or id echo: {exact}")
            print(f"  exact rung: P={exact['probability']:.6f} [{exact['method']}]")

            # 2. A degraded answer: a deadline no exact route can meet.
            degraded = client.query(
                "R(x), S(x,y)", deadline_ms=0.0001, epsilon=0.3, delta=0.1
            )
            if not degraded.get("ok"):
                fail(f"degraded query failed: {degraded}")
            if degraded.get("rung") not in ("bounds", "sampled"):
                fail(f"expected a degraded rung: {degraded}")
            if not degraded.get("guarantee"):
                fail(f"degraded answer must state its guarantee: {degraded}")
            error = abs(degraded["probability"] - exact["probability"])
            print(
                f"  degraded rung: {degraded['rung']} "
                f"P={degraded['probability']:.6f} (|Δ|={error:.4f}) — "
                f"{degraded['guarantee']}"
            )

            # 2b. The DPLL call budget, applied in whichever process answers:
            # a wide but easy lineage stays exact with no deadline, and a
            # large ε leaves a dense one a budget DPLL cannot meet.
            wide = client.query("A(x), B(x,y), C(y)")
            if wide.get("rung") != "exact" or "59 lineage variables" not in wide.get("detail", ""):
                fail(f"a 59-variable path lineage must be counted exactly: {wide}")
            dense = client.query("D(x), E(x,y), F(y)", epsilon=50.0)
            if dense.get("rung") not in ("bounds", "sampled"):
                fail(f"a large epsilon must degrade a dense lineage: {dense}")
            if "DPLL stopped after" not in dense.get("detail", ""):
                fail(f"a degraded answer must name the exceeded budget: {dense}")
            print(f"  budget: 59-variable path exact; dense H0 at ε=50 → {dense['rung']}")

            # 3. Protocol validation stays a response, not a dropped socket.
            bad = client.request({"query": "R(x,"})
            if bad.get("ok") or bad.get("error") != "bad_request":
                fail(f"malformed query must yield bad_request: {bad}")
            print(f"  bad request rejected: {bad['message']}")

            # 4. Conditioning: install Γ, query through it, what-if, drop.
            installed = client.condition(['+R("a1")', "R(x), S(x,y)"])
            if not installed.get("ok"):
                fail(f"condition install failed: {installed}")
            sid = installed["scenario"]
            again = client.condition('R(x), S(x,y) ; +R("a1")')
            if again.get("scenario") != sid:
                fail(f"condition install must be idempotent: {again}")
            conditioned = client.query('R("a2")', scenario=sid)
            if not conditioned.get("ok") or conditioned.get("scenario") != sid:
                fail(f"conditioned query failed: {conditioned}")
            print(
                f"  conditioned: P(R(a2)|Γ)={conditioned['probability']:.6f} "
                f"P(Γ)={conditioned.get('gamma_probability', 0):.6f} "
                f"[{conditioned['method']}]"
            )
            whatif = client.query(
                'R("a2")', scenario=sid, force={'S("a1","b1")': True}
            )
            if not whatif.get("ok"):
                fail(f"what-if query failed: {whatif}")
            print(f"  what-if (cofactor): P={whatif['probability']:.6f}")
            missing = client.query('R("a2")', scenario="s" + "f" * 16)
            if missing.get("ok") or missing.get("error") != "unknown_scenario":
                fail(f"unknown scenario must yield unknown_scenario: {missing}")
            dropped = client.drop_condition(sid)
            if not dropped.get("ok") or dropped.get("dropped") is not True:
                fail(f"drop_condition failed: {dropped}")
            redropped = client.drop_condition(sid)
            if redropped.get("dropped") is not False:
                fail(f"drop must be idempotent: {redropped}")
            print(f"  scenario {sid} installed, queried, derived, dropped")

        # 5. HTTP shim: health, one POSTed query, and the metrics scrape.
        health = http_get(host, port, "/healthz")
        if '"status": "ok"' not in health:
            fail(f"unexpected /healthz body: {health!r}")
        metrics = http_get(host, port, "/metrics")
        needed_metrics = [
            "server_requests_total",
            "server_answers_total",
            "server_request_seconds",
            "scenario_installs_total",
            "scenarios_installed",
            "scenario_circuits_cached",
            "engine_cache_entries",
        ]
        if pooled:
            # In pool mode engine counters live in the workers and come back
            # as merged server_workers_* gauges plus per-worker liveness.
            needed_metrics += [
                "server_workers_engine_queries_total",
                "server_worker_0_alive",
                f"server_worker_{args.workers - 1}_alive",
                "server_worker_0_queue_depth",
            ]
        else:
            needed_metrics.append("engine_queries_total")
        for needed in needed_metrics:
            if needed not in metrics:
                fail(f"/metrics missing {needed}:\n{metrics}")
        print(f"  /metrics exposes {len(metrics.splitlines())} lines")

        if pooled:
            import json

            workers = json.loads(health).get("workers", [])
            if len(workers) != args.workers:
                fail(f"expected {args.workers} workers on /healthz: {health!r}")
            for worker in workers:
                if not worker.get("alive") or worker.get("pid", 0) <= 0:
                    fail(f"worker not healthy: {worker}")
            print(f"  {len(workers)} workers alive: {[w['pid'] for w in workers]}")

    print("server smoke OK (graceful shutdown)")


if __name__ == "__main__":
    main()
