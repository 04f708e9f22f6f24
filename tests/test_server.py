"""The serving layer: protocol, ladder degradation, coalescing, shutdown."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pdb import Method, ProbabilisticDatabase
from repro.wmc.dpll import DPLLCounter
from repro.engine.cache import query_fingerprint
from repro.engine.session import EngineSession
from repro.obs import MetricsRegistry
from repro.server import (
    ErrorCode,
    MethodLadder,
    ProtocolError,
    QueryServer,
    ServerClient,
    ServerConfig,
    ServerThread,
    decode_request,
    http_get,
)
from repro.workloads.generators import figure1_database, full_tid

QUERIES = (
    "R(x), S(x,y)",                       # safe: lifted
    "R(x), S(x,y), T(y)",                 # #P-hard: grounded
    "R(x), S(x,y) | T(u), S(u,v)",        # UCQ
)

METHODS = ("ladder", "auto", "dpll", "brute-force")


def small_tid():
    db = figure1_database((0.9, 0.5, 0.4), (0.8, 0.3, 0.7, 0.2, 0.6, 0.5))
    db.add_fact("T", ("b1",), 0.6)
    db.add_fact("T", ("b3",), 0.1)
    return db


@pytest.fixture
def server():
    session = EngineSession(small_tid(), seed=11)
    config = ServerConfig(workers=2, default_epsilon=0.3, default_delta=0.1)
    with ServerThread(session, config, registry=MetricsRegistry()) as thread:
        yield thread


# -- protocol validation ------------------------------------------------------


def test_decode_request_minimal():
    request = decode_request('{"query": "R(x)"}')
    assert request.query == "R(x)"
    assert request.method == "ladder"


def test_decode_request_rejects_garbage():
    for line in (
        "not json",
        "[1,2]",
        "{}",
        '{"query": ""}',
        '{"query": "R(x)", "method": "sorcery"}',
        '{"query": "R(x)", "deadline_ms": -5}',
        '{"query": "R(x)", "epsilon": "wide"}',
        '{"query": "R(x)", "delta": 1.5}',
    ):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(line)
        assert excinfo.value.code is ErrorCode.BAD_REQUEST


def test_coalesce_key_normalizes_whitespace():
    a = decode_request('{"query": "R(x),  S(x,y)"}').coalesce_key("db")
    b = decode_request('{"query": "R(x), S(x,y)"}').coalesce_key("db")
    assert a == b
    c = decode_request('{"query": "R(x), S(x,y)", "epsilon": 0.1}').coalesce_key("db")
    assert a != c  # a tighter error budget is a different computation


# -- ladder rung selection ----------------------------------------------------


def test_ladder_exact_rung_no_deadline():
    ladder = MethodLadder(EngineSession(small_tid(), seed=11))
    answer = ladder.evaluate("R(x), S(x,y)")
    assert answer.rung == "exact"
    assert answer.exact
    assert "exact" in answer.guarantee
    reference = ProbabilisticDatabase(tid=small_tid()).probability("R(x), S(x,y)")
    assert answer.probability == reference.probability


def test_ladder_bounds_rung_when_exact_unaffordable():
    session = EngineSession(small_tid(), seed=11)
    ladder = MethodLadder(session)
    # ε = 1000 leaves DPLL a budget of one call: exact is unaffordable.
    answer = ladder.evaluate("R(x), S(x,y), T(y)", deadline_s=30.0, epsilon=1e3)
    assert answer.rung == "bounds"
    assert not answer.exact
    assert answer.lower is not None and answer.upper is not None
    assert answer.lower - 1e-12 <= answer.probability <= answer.upper + 1e-12
    exact = ProbabilisticDatabase(tid=small_tid()).probability(
        "R(x), S(x,y), T(y)", Method.DPLL
    )
    assert answer.lower - 1e-12 <= exact.probability <= answer.upper + 1e-12
    assert "Theorem 6.1" in answer.guarantee


def test_ladder_sampled_rung_under_tiny_deadline():
    ladder = MethodLadder(
        EngineSession(small_tid(), seed=11),
        default_epsilon=0.3,
        default_delta=0.1,
    )
    answer = ladder.evaluate("R(x), S(x,y), T(y)", deadline_s=1e-7)
    assert answer.rung == "sampled"
    assert not answer.exact
    assert answer.samples is not None and answer.samples > 0
    assert "seeded" in answer.guarantee
    exact = ProbabilisticDatabase(tid=small_tid()).probability(
        "R(x), S(x,y), T(y)", Method.DPLL
    )
    assert abs(answer.probability - exact.probability) <= 0.3 * exact.probability


def test_ladder_direct_method_bypasses_degradation():
    ladder = MethodLadder(EngineSession(small_tid(), seed=11))
    answer = ladder.evaluate("R(x), S(x,y)", method="dpll", deadline_s=1e-7)
    assert answer.method == "dpll"
    assert answer.rung == "exact"
    assert answer.deadline_exceeded  # ran anyway; flagged, cost recorded


def test_ladder_predictor_learns_from_overruns():
    session = EngineSession(small_tid(), seed=11)
    ladder = MethodLadder(session, default_epsilon=0.3, default_delta=0.1)
    # First call: nothing is known, exact runs and overruns the deadline.
    first = ladder.evaluate("R(x), S(x,y), T(y)", deadline_s=1e-7)
    # Second identical call: the observed cost now predicts an overrun,
    # so the ladder degrades up front (bounds or sampled, never exact).
    second = ladder.evaluate("R(x), S(x,y), T(y)", deadline_s=1e-7)
    assert second.rung in ("bounds", "sampled")
    assert first.probability is not None and second.probability is not None


@pytest.mark.parametrize("use_cache", (True, False))
@pytest.mark.parametrize("query", ("R(x), S(x,y), T(y)", "R(x), S(x,y) | T(u), S(u,v)"))
def test_ladder_sampled_rung_is_the_library_karp_luby(query, use_cache):
    session = EngineSession(small_tid(), seed=11)
    ladder = MethodLadder(session, use_cache=use_cache, default_epsilon=0.3, default_delta=0.1)
    served = ladder.evaluate(query, deadline_s=1e-9)
    assert served.rung == "sampled" and served.method == "karp-luby"
    library = ProbabilisticDatabase(
        tid=small_tid(), seed=11, mc_epsilon=0.3, mc_delta=0.1
    ).probability(query, Method.KARP_LUBY)
    assert served.probability == library.probability  # prodb-lint: exact
    assert f"{served.samples} samples" in library.detail


def test_ladder_predictor_is_bounded_by_the_cache_size():
    session = EngineSession(small_tid(), seed=11, cache_size=8)
    ladder = MethodLadder(session)
    queries = [f"R(x), S(x,'a{i}')" for i in range(session.cache.maxsize + 10)]
    for query in queries:
        ladder.evaluate(query)
    assert len(ladder.predictor._seconds) <= session.cache.maxsize
    newest = query_fingerprint(queries[-1])
    assert ladder.predictor.predict(newest, "safe-plan") is not None
    assert ladder.predictor.predict(query_fingerprint(queries[0]), "safe-plan") is None


@pytest.mark.parametrize("rung, deadline_s", [("bounds", 30.0), ("sampled", 1e-7)])
def test_ladder_degraded_answers_keyed_on_the_relations_read(rung, deadline_s):
    session = EngineSession(small_tid(), seed=11)
    # The bounds case degrades by budget: ε = 1000 leaves DPLL one call.
    epsilon = 1e3 if rung == "bounds" else 0.3
    ladder = MethodLadder(session, default_epsilon=epsilon, default_delta=0.1)
    query = "R(x), S(x,y), T(y)"
    first = ladder.evaluate(query, deadline_s=deadline_s)
    assert first.rung == rung and not first.cache_hit
    session.add_fact("Audit", ("a7",), 1.0)  # a relation the query does not read
    again = ladder.evaluate(query, deadline_s=deadline_s)
    assert again.rung == rung and again.cache_hit
    assert again.probability == first.probability
    session.add_fact("S", ("a7", "a7"), 0.5)
    after = ladder.evaluate(query, deadline_s=deadline_s)
    assert after.rung == rung and not after.cache_hit


def test_ladder_counts_a_48_variable_h0_exactly_without_a_deadline():
    ladder = MethodLadder(EngineSession(full_tid(23, 6), seed=11))
    answer = ladder.evaluate("R(x), S(x,y), T(y)")
    assert answer.rung == "exact" and answer.method == "dpll"
    assert "grounded: 48 lineage variables" in answer.detail


def test_ladder_remembers_a_stopped_count(monkeypatch):
    runs = []
    run = DPLLCounter.run

    def counting_run(self, expr, probabilities, budget=float("inf")):
        runs.append(budget)
        return run(self, expr, probabilities, budget)

    monkeypatch.setattr(DPLLCounter, "run", counting_run)
    ladder = MethodLadder(EngineSession(full_tid(23, 6), seed=11))
    first = ladder.evaluate("R(x), S(x,y), T(y)", epsilon=5.0)
    assert first.rung == "bounds" and not first.cache_hit
    stop = "DPLL stopped after 23 calls > budget 22 (48 variables, ε=5.0, δ=0.05)"
    assert stop in first.detail
    again = ladder.evaluate("R(x), S(x,y), T(y)", epsilon=5.0)
    assert again.rung == "bounds" and again.cache_hit and stop in again.detail
    assert runs == [22]  # the repeat made no second DPLL attempt
    tighter = ladder.evaluate("R(x), S(x,y), T(y)")  # ε = 0.2: budget 13 280
    assert tighter.rung == "exact" and runs == [22, 13280]


# -- seeded reproducibility (satellite) ---------------------------------------


def test_same_seed_same_sampled_answers_across_two_serves():
    """Two serves with the same seed give identical Karp–Luby answers."""
    answers = []
    for _ in range(2):
        session = EngineSession(small_tid(), seed=42)
        config = ServerConfig(workers=2, default_epsilon=0.3, default_delta=0.1)
        with ServerThread(session, config, registry=MetricsRegistry()) as thread:
            with ServerClient("127.0.0.1", thread.port) as client:
                response = client.query("R(x), S(x,y), T(y)", deadline_ms=0.0001)
        assert response["ok"] and response["rung"] == "sampled"
        answers.append((response["probability"], response["samples"]))
    assert answers[0] == answers[1]


def test_different_seed_different_sampled_answer():
    probabilities = set()
    for seed in (1, 2):
        session = EngineSession(small_tid(), seed=seed)
        ladder = MethodLadder(session, default_epsilon=0.3, default_delta=0.1)
        probabilities.add(
            ladder.evaluate("R(x), S(x,y), T(y)", deadline_s=1e-7).probability
        )
    assert len(probabilities) == 2


# -- coalescing ---------------------------------------------------------------


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    query=st.sampled_from(QUERIES),
    method=st.sampled_from(METHODS),
    fanout=st.integers(min_value=2, max_value=5),
)
def test_coalesced_fanout_identical_to_sequential(server, query, method, fanout):
    """Coalesced fan-out answers are byte-identical to sequential answers."""
    results = []
    lock = threading.Lock()

    def fire():
        with ServerClient("127.0.0.1", server.port) as client:
            response = client.query(query, method=method)
            with lock:
                results.append(response)

    threads = [threading.Thread(target=fire) for _ in range(fanout)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == fanout

    with ServerClient("127.0.0.1", server.port) as client:
        sequential = client.query(query, method=method)

    def answer_bytes(response):
        assert response.get("ok"), response
        core = {
            k: v
            for k, v in response.items()
            if k not in ("elapsed_ms", "coalesced", "id")
        }
        return json.dumps(core, sort_keys=True).encode()

    reference = answer_bytes(sequential)
    for response in results:
        assert answer_bytes(response) == reference


def test_concurrent_identical_requests_coalesce(server):
    barrier = threading.Barrier(6)
    responses = []
    lock = threading.Lock()

    def fire():
        with ServerClient("127.0.0.1", server.port) as client:
            barrier.wait()
            response = client.query("R(x), S(x,y), T(y)", method="dpll")
            with lock:
                responses.append(response)

    threads = [threading.Thread(target=fire) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r["ok"] for r in responses)
    assert len({r["probability"] for r in responses}) == 1
    snapshot = server.server.registry.snapshot()
    assert snapshot["server_requests_total"] == 6
    # At least the non-leader requests of the first wave coalesced or were
    # served from the cache; the server never computed 6 times.
    engine_misses = server.server.session.stats.cache_misses
    assert engine_misses <= 2


def test_overlong_lines_answer_bad_request_then_close(server):
    """Lines past the 64 KiB stream limit get an explicit error, never a
    silently dropped connection: NDJSON answers ``bad_request`` naming the
    limit, the HTTP shim answers 400 for a long request or header line."""
    port = server.port
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        query = "R(x)" + " " * 70_000
        sock.sendall(json.dumps({"query": query}).encode() + b"\n")
        reader = sock.makefile("rb")
        response = json.loads(reader.readline())
        assert response["ok"] is False and response["error"] == "bad_request"
        assert "65536" in response["message"]
        assert reader.readline() == b""  # then the server closes
    for head in (
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
    ):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(head)
            raw = sock.makefile("rb").read()
        assert raw.startswith(b"HTTP/1.1 400"), raw[:80]
        assert b"65536" in raw
    with ServerClient("127.0.0.1", port) as client:  # still serving
        assert client.query("R(x), S(x,y)")["ok"]


# -- admission control and shutdown -------------------------------------------


def test_overload_sheds_with_explicit_error():
    session = EngineSession(full_tid(41, 4), seed=11)
    config = ServerConfig(
        workers=1, max_pending=1, coalesce=False, request_timeout_s=60.0
    )
    with ServerThread(session, config, registry=MetricsRegistry()) as thread:
        responses = []
        lock = threading.Lock()

        def fire(i):
            with ServerClient("127.0.0.1", thread.port) as client:
                response = client.query("R(x), S(x,y), T(y)", id=str(i))
                with lock:
                    responses.append(response)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        shed = [r for r in responses if not r["ok"]]
        served = [r for r in responses if r["ok"]]
        assert served, "someone must get through"
        assert shed, "8 concurrent requests into max_pending=1 must shed"
        for r in shed:
            assert r["error"] == "overloaded"
            assert "retry" in r["message"]
        snapshot = thread.server.registry.snapshot()
        assert snapshot["server_overloaded_total"] == len(shed)


def test_graceful_shutdown_completes_inflight_and_refuses_queued():
    session = EngineSession(full_tid(41, 5), seed=11)
    config = ServerConfig(workers=1, request_timeout_s=60.0)
    thread = ServerThread(session, config, registry=MetricsRegistry()).start()
    port = thread.port

    inflight_response = {}
    late_response = {}

    def slow_request():
        with ServerClient("127.0.0.1", port) as client:
            inflight_response.update(client.query("R(x), S(x,y), T(y)"))

    late_client = ServerClient("127.0.0.1", port)
    worker = threading.Thread(target=slow_request)
    worker.start()
    time.sleep(0.05)  # let the slow request be admitted

    stopper = threading.Thread(target=thread.stop)
    stopper.start()
    time.sleep(0.01)  # drain begins
    try:
        late_response.update(late_client.request({"query": "R(x), S(x,y)"}))
    except (ConnectionError, OSError):
        late_response.update({"error": "connection_closed"})
    finally:
        late_client.close()
    worker.join(timeout=30)
    stopper.join(timeout=30)

    # The in-flight request completed with a real answer.
    assert inflight_response.get("ok"), inflight_response
    assert inflight_response.get("rung") == "exact"
    # The late request got a clean shutting_down (or found the socket
    # already closed if the drain won the race).
    assert late_response.get("error") in ("shutting_down", "connection_closed")
    # The listening socket is closed.
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", port), timeout=0.5).close()


class _SlowLadder(MethodLadder):
    """Holds every evaluation long enough that a 1 ms timeout always
    fires first — the raw query occasionally finishes inside the timeout
    once the process-wide kernel tables are warm, which made this test
    flaky."""

    def evaluate(self, *args, **kwargs):
        time.sleep(0.25)
        return super().evaluate(*args, **kwargs)


def test_request_timeout_returns_timeout_error():
    session = EngineSession(full_tid(41, 5), seed=11)
    config = ServerConfig(workers=1, request_timeout_s=60.0)
    with ServerThread(
        session,
        config,
        registry=MetricsRegistry(),
        ladder=_SlowLadder(session),
    ) as thread:
        with ServerClient("127.0.0.1", thread.port) as client:
            response = client.request(
                {"query": "R(x), S(x,y), T(y)", "timeout_ms": 1}
            )
        assert not response["ok"]
        assert response["error"] == "timeout"


# -- HTTP shim ----------------------------------------------------------------


def test_http_query_health_metrics(server):
    port = server.port
    health = json.loads(http_get("127.0.0.1", port, "/healthz"))
    assert health["status"] == "ok"

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        body = json.dumps({"query": "R(x), S(x,y)"}).encode()
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\nConnection: close\r\n\r\n"
            + body
        )
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, payload = raw.decode().partition("\r\n\r\n")
    assert head.startswith("HTTP/1.1 200")
    answer = json.loads(payload)
    assert answer["ok"] and answer["rung"] == "exact"

    metrics = http_get("127.0.0.1", port, "/metrics")
    assert "server_requests_total" in metrics
    assert "server_request_seconds" in metrics


def test_http_unknown_path_404(server):
    with pytest.raises(ConnectionError, match="404"):
        http_get("127.0.0.1", server.port, "/nope")


# -- responses always name their rung -----------------------------------------


def test_every_answer_names_rung_and_guarantee(server):
    with ServerClient("127.0.0.1", server.port) as client:
        for query in QUERIES:
            for extra in ({}, {"deadline_ms": 0.0001}):
                response = client.request({"query": query, **extra})
                assert response["ok"], response
                assert response["rung"] in ("exact", "bounds", "sampled")
                assert response["guarantee"]
                assert isinstance(response["exact"], bool)
