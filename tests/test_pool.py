"""Multi-process serving: routing, answer identity, crash semantics."""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tid import TupleIndependentDatabase
from repro.engine.session import EngineSession
from repro.obs import MetricsRegistry
from repro.server import ServerClient, ServerConfig, ServerThread, http_get
from repro.server.pool import _HashRing, mp_context
from repro.workloads.generators import figure1_database

QUERIES = (
    "R(x), S(x,y)",                       # safe: lifted
    "R(x), S(x,y), T(y)",                 # #P-hard: grounded
    "R(x), S(x,y) | T(u), S(u,v)",        # UCQ
)

METHODS = ("ladder", "auto", "dpll", "brute-force")


def _http_raw(host: str, port: int, path: str) -> tuple[str, str]:
    """Like http_get but returns (status-line, body) without raising."""
    import socket

    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks).decode("utf-8", errors="replace")
    head, _, body = raw.partition("\r\n\r\n")
    return (head.splitlines()[0] if head else ""), body


def small_tid():
    db = figure1_database((0.9, 0.5, 0.4), (0.8, 0.3, 0.7, 0.2, 0.6, 0.5))
    db.add_fact("T", ("b1",), 0.6)
    db.add_fact("T", ("b3",), 0.1)
    return db


def _server(mode: str, tid=None, **overrides):
    session = EngineSession(tid if tid is not None else small_tid(), seed=11)
    options = {
        "workers": 2,
        "mode": mode,
        "default_epsilon": 0.3,
        "default_delta": 0.1,
    }
    options.update(overrides)
    return ServerThread(session, ServerConfig(**options), registry=MetricsRegistry())


@pytest.fixture(scope="module")
def threads_server():
    with _server("threads") as thread:
        yield thread


@pytest.fixture(scope="module")
def process_server():
    with _server("processes") as thread:
        yield thread


def _strip(response):
    """The answer-identity envelope as canonical bytes.

    Every answer-bearing field (ok, probability, rung, guarantee, exact,
    method, bounds, epsilon, delta, samples, deadline_exceeded) is kept;
    dropped are the timing field (``elapsed_ms``), the per-request
    envelope (``coalesced``, ``id``) and the diagnostic ``detail`` string,
    whose memo-hit counters read process-global kernel state and are not
    reproducible across processes with different histories.
    """
    assert response.get("ok"), response
    dropped = ("elapsed_ms", "coalesced", "id", "detail")
    assert "probability" in response and "guarantee" in response
    return json.dumps(
        {k: v for k, v in response.items() if k not in dropped},
        sort_keys=True,
    ).encode()


# -- answer identity ----------------------------------------------------------

_IDENTITY_REQUESTS = tuple(
    (query, method) for query in QUERIES for method in ("ladder", "dpll", "auto")
)


@settings(max_examples=3, deadline=None)
@given(order=st.permutations(list(_IDENTITY_REQUESTS)))
def test_process_answers_byte_identical_to_threads(order):
    """Same seed, same request sequence ⇒ byte-identical answer envelopes.

    Fresh server pairs per example, in whatever order hypothesis picks:
    probability, rung, guarantee, exactness, method, bounds and sampling
    budget must all come back byte-for-byte equal from a worker process
    that attached shared-memory shards.
    """
    with _server("threads") as reference_server, _server(
        "processes", workers=1
    ) as pooled_server:
        with ServerClient("127.0.0.1", reference_server.port) as reference_client:
            with ServerClient("127.0.0.1", pooled_server.port) as pooled_client:
                for query, method in order:
                    reference = reference_client.query(query, method=method)
                    pooled = pooled_client.query(query, method=method)
                    assert _strip(pooled) == _strip(reference), (query, method)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    query=st.sampled_from(QUERIES),
    method=st.sampled_from(METHODS),
)
def test_sharded_answers_equal_threads(threads_server, process_server, query, method):
    """Routing across 2 long-lived workers preserves the answer envelope."""
    with ServerClient("127.0.0.1", threads_server.port) as client:
        reference = client.query(query, method=method)
    with ServerClient("127.0.0.1", process_server.port) as client:
        pooled = client.query(query, method=method)
    assert _strip(pooled) == _strip(reference)


@pytest.mark.parametrize("server", ["threads_server", "process_server"])
def test_legacy_backend_field_changes_nothing(request, server):
    """A request still carrying the retired ``"backend"`` key is answered
    exactly as the same request without it: the key is ignored as unknown."""
    port = request.getfixturevalue(server).port
    cases = [(query, "ladder") for query in QUERIES] + [("R(x), S(x,y)", "safe-plan")]
    with ServerClient("127.0.0.1", port) as client:
        for query, method in cases:
            for backend in ("rows", "columnar", "auto"):
                legacy = client.request(
                    {"query": query, "method": method, "backend": backend, "id": "old"}
                )
                plain = client.request({"query": query, "method": method, "id": "new"})
                assert legacy["ok"], legacy
                for response in (legacy, plain):
                    del response["id"], response["elapsed_ms"]
                assert legacy == plain, (query, method, backend)


def test_process_error_responses_match_threads(threads_server, process_server):
    for payload, expected in (
        ({"query": "R(x,"}, "bad_request"),  # parse error inside the ladder
        ({"query": "R(x), S(x,y), T(y)", "method": "lifted"}, "internal"),
    ):
        with ServerClient("127.0.0.1", threads_server.port) as client:
            reference = client.request(dict(payload))
        with ServerClient("127.0.0.1", process_server.port) as client:
            pooled = client.request(dict(payload))
        assert reference["error"] == expected
        # One evaluation function: the whole payload, minus the id, agrees.
        assert {k: v for k, v in pooled.items() if k != "id"} == {
            k: v for k, v in reference.items() if k != "id"
        }


def test_ladder_serves_safe_point_query_by_safe_plan_in_both_modes():
    """A safe point query on a 5 000-fact database takes the extensional
    route on the exact rung — not the lifted engine's domain-wide
    grounding — and the envelope is the same in both modes."""
    big = TupleIndependentDatabase()
    for i in range(100):
        big.add_fact("R", (f"k{i}",), 0.5 + i / 400)
        for j in range(50):
            big.add_fact("S", (f"k{i}", f"v{j}"), 0.1 + ((i * j) % 80) / 100)
    assert big.fact_count() >= 5000
    answers = []
    for mode in ("threads", "processes"):
        with _server(mode, tid=big.copy(), workers=1) as server:
            with ServerClient("127.0.0.1", server.port) as client:
                answers.append(client.query("R(x), S(x,'v7')"))
    threads, processes = answers
    assert threads["method"] == "safe-plan" and threads["rung"] == "exact"
    assert threads["detail"].startswith("safe plan: ")
    assert _strip(processes) == _strip(threads)
    assert processes["detail"] == threads["detail"]
    expected = 1.0
    for i in range(100):
        expected *= 1.0 - (0.5 + i / 400) * (0.1 + ((i * 7) % 80) / 100)
    assert abs(threads["probability"] - (1.0 - expected)) <= 1e-9


def test_schema_error_is_bad_request_in_both_modes(threads_server, process_server):
    for method in ("ladder", "auto", "dpll", "lifted"):
        payload = {"query": "R(x,y), S(x,y)", "method": method}
        with ServerClient("127.0.0.1", threads_server.port) as client:
            reference = client.request(dict(payload))
        with ServerClient("127.0.0.1", process_server.port) as client:
            pooled = client.request(dict(payload))
        assert reference["error"] == pooled["error"] == "bad_request", method
        assert "arity 1" in reference["message"] == pooled["message"]


# -- routing ------------------------------------------------------------------


def test_hash_ring_is_deterministic_and_sticky():
    ring = _HashRing()
    for worker in range(4):
        ring.add(worker)
    keys = [f"db|{i}" for i in range(200)]
    first = [ring.route(k) for k in keys]
    assert first == [ring.route(k) for k in keys]  # deterministic
    assert set(first) == {0, 1, 2, 3}  # all workers used
    # Removing one worker only moves that worker's keys.
    ring.remove(2)
    for key, owner in zip(keys, first):
        if owner != 2:
            assert ring.route(key) == owner
        else:
            assert ring.route(key) != 2


def test_mp_context_never_uses_fork():
    """Worker processes must not fork: the engine holds locks and threads.

    forkserver is preferred (cheap re-spawn after the first), spawn is the
    portable fallback; plain fork would duplicate a possibly-locked
    interpreter and is never acceptable.
    """
    import multiprocessing

    context = mp_context()
    assert context.get_start_method() in ("forkserver", "spawn")
    if "forkserver" in multiprocessing.get_all_start_methods():
        assert context.get_start_method() == "forkserver"


# -- health + metrics ---------------------------------------------------------


def test_healthz_reports_worker_liveness(process_server):
    body = http_get("127.0.0.1", process_server.port, "/healthz")
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["mode"] == "processes"
    workers = health["workers"]
    assert len(workers) == 2
    for worker in workers:
        assert worker["alive"] is True
        assert isinstance(worker["pid"], int) and worker["pid"] > 0
        assert worker["queue_depth"] >= 0
        assert worker["heartbeat_age_s"] < 30.0


def test_metrics_expose_worker_gauges(process_server):
    with ServerClient("127.0.0.1", process_server.port) as client:
        assert client.query("R(x), S(x,y)")["ok"]
    metrics = http_get("127.0.0.1", process_server.port, "/metrics")
    for needed in (
        "server_worker_0_alive",
        "server_worker_1_alive",
        "server_worker_0_queue_depth",
        "server_worker_1_heartbeat_age_seconds",
        "server_workers_engine_queries_total",
    ):
        assert needed in metrics, metrics


# -- crash semantics ----------------------------------------------------------


@pytest.mark.parametrize("restart", (False, True))
def test_killed_worker_yields_only_explicit_responses(restart):
    """SIGKILL mid-stream: every request is answered or explicitly shed.

    With auto-restart off the dead worker stays dead — this pins the
    degraded-but-correct behavior (503 healthz, survivor still answering).
    With it on, the survivor keeps answering while the replacement spawns,
    and no client hangs either way.
    """
    with _server(
        "processes", request_timeout_s=60.0, restart_workers=restart
    ) as thread:
        pool = thread.server._evaluator
        responses = []
        lock = threading.Lock()
        stop = threading.Event()

        def fire(offset: int) -> None:
            with ServerClient("127.0.0.1", thread.port, timeout_s=60) as client:
                i = 0
                while not stop.is_set() or i < 3:
                    query = QUERIES[(offset + i) % len(QUERIES)]
                    response = client.query(query, method="dpll")
                    with lock:
                        responses.append(response)
                    i += 1
                    if i > 200:  # safety valve
                        break

        clients = [threading.Thread(target=fire, args=(k,)) for k in range(3)]
        for t in clients:
            t.start()
        time.sleep(0.3)  # let traffic build
        victim = pool.health()["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        time.sleep(1.0)  # keep firing across the crash + reap window
        stop.set()
        for t in clients:
            t.join(timeout=90)
            assert not t.is_alive(), "client hung after worker kill"

        assert responses
        for response in responses:
            if response.get("ok"):
                assert "probability" in response
            else:
                # never hung, never corrupted: only explicit shedding
                assert response["error"] in ("overloaded", "timeout"), response

        if not restart:
            status_line, body = _http_raw("127.0.0.1", thread.port, "/healthz")
            assert "503" in status_line, (status_line, body)
            health = json.loads(body)
            assert health["status"] == "degraded"
            assert any(not worker["alive"] for worker in health["workers"])
        registry = thread.server.registry
        assert registry.snapshot().get("server_worker_crashes_total", 0) >= 1
        # The survivor still answers.
        with ServerClient("127.0.0.1", thread.port) as client:
            assert client.query("R(x), S(x,y)")["ok"]


def test_healthz_returns_503_when_worker_dead():
    with _server("processes", restart_workers=False) as thread:
        victim = thread.server._evaluator.health()["workers"][1]["pid"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 10
        status_line = ""
        while time.time() < deadline:
            status_line, body = _http_raw("127.0.0.1", thread.port, "/healthz")
            if "503" in status_line:
                health = json.loads(body)
                assert health["status"] == "degraded"
                break
            time.sleep(0.1)
        assert "503" in status_line, status_line


def test_crashed_worker_is_respawned():
    """With restart on (the default) a SIGKILLed worker comes back.

    The replacement re-joins the hash ring, healthz returns to 200/ok, and
    ``server_worker_restarts_total`` counts the respawn.
    """
    with _server("processes") as thread:
        pool = thread.server._evaluator
        victim = pool.health()["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.time() + 30
        recovered = False
        while time.time() < deadline:
            status_line, body = _http_raw("127.0.0.1", thread.port, "/healthz")
            if "200" in status_line:
                health = json.loads(body)
                workers = health["workers"]
                if (
                    health["status"] == "ok"
                    and all(worker["alive"] for worker in workers)
                    and any(worker["pid"] != victim for worker in workers)
                    and any(worker["restarts"] >= 1 for worker in workers)
                ):
                    recovered = True
                    break
            time.sleep(0.1)
        assert recovered, "killed worker was not respawned within 30s"
        registry = thread.server.registry
        assert registry.snapshot().get("server_worker_restarts_total", 0) >= 1
        # The pool routes through the replacement without shedding.
        with ServerClient("127.0.0.1", thread.port) as client:
            for query in QUERIES:
                assert client.query(query)["ok"]


# -- drain --------------------------------------------------------------------


def test_process_server_drains_cleanly():
    thread = _server("processes").start()
    with ServerClient("127.0.0.1", thread.port) as client:
        assert client.query("R(x), S(x,y)")["ok"]
    pool = thread.server._evaluator
    pids = [w["pid"] for w in pool.health()["workers"]]
    thread.stop()
    deadline = time.time() + 10
    while time.time() < deadline:
        if all(not _pid_alive(pid) for pid in pids):
            break
        time.sleep(0.05)
    assert all(not _pid_alive(pid) for pid in pids), "workers outlived drain"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
