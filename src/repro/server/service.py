"""The asyncio query server: NDJSON over TCP plus a minimal HTTP shim.

One :class:`QueryServer` bridges client connections onto an
:class:`Evaluator`: a bounded thread pool over the shared
:class:`~repro.engine.session.EngineSession` (``mode="threads"``) or a
:class:`~repro.server.pool.WorkerPool` of worker processes
(``mode="processes"``). Both answer through the one module-level
:func:`evaluate` (and its install twin :func:`install`), so a payload is
shaped the same way in either mode. The event loop owns all connection
state; results fan back out through asyncio futures. Three mechanics:

* **Coalescing** — concurrent identical requests (same
  ``(db_fingerprint, query, method)`` identity, refined by error budget)
  share one computation: the first becomes the *leader* and submits to the
  evaluator, the rest await the leader's future and are marked
  ``"coalesced": true`` in their answers. Answers are
  byte-identical to what sequential evaluation would have returned.
* **Admission control** — at most ``max_pending`` leader computations may
  be admitted (running + queued in the evaluator). Beyond that the server
  sheds load with an immediate ``overloaded`` error instead of queueing
  unboundedly; per-request hard timeouts return ``timeout`` without
  cancelling the shared computation (followers may still be served).
* **Graceful drain** — :meth:`QueryServer.shutdown` stops accepting
  connections, answers every in-flight computation, responds
  ``shutting_down`` to requests arriving during the drain, then closes
  every socket.

Protocol sniffing: a connection whose first line starts with an HTTP verb
is served by the shim (``POST /query``, ``POST /condition``,
``DELETE /condition/<id>``, ``GET /healthz``, ``GET /metrics``); anything
else is newline-delimited JSON. A line over :data:`_LINE_LIMIT` bytes is
answered ``bad_request`` (HTTP 400 on the shim), then the connection closes.

**Scenarios** (conditioning): ``op: condition`` installs a constraint set
through the evaluator (in processes mode, on the scenario's ring owner)
and the front door's :class:`~repro.condition.session.ScenarioManager`
records its specs; queries naming a ``scenario`` answer ``P(Q | Γ)``, with
``force`` deriving a what-if (pinned evidence). Every such query ships the specs,
so a respawned worker re-installs transparently.

All shared containers in this module are confined to the event-loop
thread (single-threaded by construction), which is the concurrency
discipline prodb-lint rule PL002 accepts via the ``lockfree`` pragma —
see docs/dev.md.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Protocol, Sequence, Set

from ..condition.core import ConstraintSet, InconsistentConstraints
from ..condition.session import (
    ScenarioManager,
    StaleScenarioError,
    UnknownScenarioError,
    scenario_id_of,
)
from ..engine.session import EngineSession
from ..obs import MetricsRegistry, get_registry
from .ladder import MethodLadder
from .protocol import (
    ConditionRequest,
    DropConditionRequest,
    ErrorCode,
    ProtocolError,
    QueryRequest,
    decode_request,
    encode,
    error_response,
)

__all__ = ["Evaluator", "QueryServer", "ServerConfig", "ServerThread", "evaluate", "install"]

_HTTP_VERBS = (b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS ")

#: Longest request, HTTP request or header line, in bytes (asyncio's
#: default ``StreamReader`` limit, made explicit so errors can name it).
_LINE_LIMIT = 2**16


@dataclass
class ServerConfig:
    """Tunables for one :class:`QueryServer`.

    ``mode`` selects the evaluation backend behind the asyncio front
    door: ``"threads"`` (default) runs the ladder in a bounded thread
    pool over the one shared session; ``"processes"`` publishes the
    database as shared-memory shards and fans out to ``workers`` worker
    *processes* with consistent-hash routing
    (:mod:`repro.server.pool`). Coalescing, admission control, deadlines
    and graceful drain behave identically in both modes, and answers are
    byte-identical.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port; read it back from ``server.port``
    workers: int = 4
    mode: str = "threads"  # "threads" | "processes"
    max_pending: int = 64
    coalesce: bool = True
    default_deadline_s: Optional[float] = None
    request_timeout_s: float = 30.0
    drain_timeout_s: float = 10.0
    default_epsilon: float = 0.2
    default_delta: float = 0.05
    worker_cache_size: Optional[int] = None  # processes mode; None: parent's size
    scenario_cache_size: int = 32  # compiled conditioned circuits kept (LRU)
    restart_workers: bool = True  # processes mode: respawn crashed workers


# -- evaluation, shared by both modes -----------------------------------------

#: The error code each failure family answers with; anything else is
#: ``internal``. Order matters: the scenario errors subclass ValueError.
_ERROR_CODES = (
    (UnknownScenarioError, ErrorCode.UNKNOWN_SCENARIO),
    (StaleScenarioError, ErrorCode.STALE_SCENARIO),
    (InconsistentConstraints, ErrorCode.UNSATISFIABLE),
    ((ValueError, NotImplementedError), ErrorCode.BAD_REQUEST),
)


def _error_payload(error: Exception) -> Dict[str, Any]:
    code = next(
        (code for kinds, code in _ERROR_CODES if isinstance(error, kinds)),
        ErrorCode.INTERNAL,
    )
    return error_response(code, f"{type(error).__name__}: {error}")


def evaluate(
    ladder: MethodLadder,
    scenarios: ScenarioManager,
    request: QueryRequest,
    specs: Optional[Sequence[str]],
    default_deadline_s: Optional[float],
) -> Dict[str, Any]:
    """Answer one query request: the payload both serving modes return.

    Every failure becomes an error *payload*, never an exception, so the
    thread pool and a worker process settle their futures alike. *specs*
    are the named scenario's constraint specs: a manager that never saw
    the install (a fresh or respawned worker) conditions from them.
    """
    deadline_s = (
        request.deadline_ms / 1e3
        if request.deadline_ms is not None
        else default_deadline_s
    )
    try:
        scenario = None
        if request.scenario is not None:
            scenario = scenarios.derived(
                request.scenario, dict(request.force or ()), specs=specs
            )
        answer = ladder.evaluate(
            request.query,
            method=request.method,
            deadline_s=deadline_s,
            epsilon=request.epsilon,
            delta=request.delta,
            scenario=scenario,
            scenario_id=request.scenario,
        )
    except Exception as error:  # noqa: BLE001 - evaluation boundary
        return _error_payload(error)
    payload = answer.to_payload()
    payload["elapsed_ms"] = round(answer.elapsed_s * 1e3, 3)
    return payload


def install(scenarios: ScenarioManager, specs: Sequence[str]) -> Dict[str, Any]:
    """Install a constraint set: the ``op: condition`` payload of both modes."""
    try:
        scenario_id, scenario = scenarios.install(specs)
    except Exception as error:  # noqa: BLE001 - evaluation boundary
        return _error_payload(error)
    return {
        "ok": True,
        "scenario": scenario_id,
        "gamma_probability": scenario.gamma_probability,
        "constraints": list(scenario.constraints.specs()),
    }


class Evaluator(Protocol):
    """Where admitted work runs. Futures resolve to :func:`evaluate` /
    :func:`install` payloads, or fail with a :class:`ProtocolError`."""

    def submit(
        self, request: QueryRequest, specs: Optional[Sequence[str]]
    ) -> "Future[Dict[str, Any]]": ...

    def submit_condition(
        self, scenario_id: str, specs: Sequence[str]
    ) -> "Future[Dict[str, Any]]": ...

    def drop(self, scenario_id: str) -> None: ...

    def health(self) -> Dict[str, Any]: ...

    def refresh_metrics(self) -> None: ...

    def shutdown(self) -> None: ...


class ThreadEvaluator:
    """Threads mode: a bounded thread pool over the one shared session. Its
    scenario manager is the front door's, so ``drop`` has nothing left to do."""

    def __init__(
        self, ladder: MethodLadder, scenarios: ScenarioManager, config: ServerConfig
    ) -> None:
        self._ladder = ladder
        self._scenarios = scenarios
        self._deadline_s = config.default_deadline_s
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="prodb-worker"
        )

    def submit(
        self, request: QueryRequest, specs: Optional[Sequence[str]]
    ) -> "Future[Dict[str, Any]]":
        return self._executor.submit(
            evaluate, self._ladder, self._scenarios, request, specs, self._deadline_s
        )

    def submit_condition(
        self, scenario_id: str, specs: Sequence[str]
    ) -> "Future[Dict[str, Any]]":
        return self._executor.submit(install, self._scenarios, specs)

    def drop(self, scenario_id: str) -> None:
        pass

    def health(self) -> Dict[str, Any]:
        return {}

    def refresh_metrics(self) -> None:
        pass

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


# -- the front door -------------------------------------------------------------


class _LineTooLong(Exception):
    """A line over :data:`_LINE_LIMIT`; carries its first bytes for sniffing."""

    def __init__(self, head: bytes) -> None:
        super().__init__(f"line exceeds the {_LINE_LIMIT}-byte limit")
        self.head = head


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """``readline``, except that a line over the limit is read through and
    dropped, then raised as :class:`_LineTooLong` — asyncio's own raises a
    bare ``ValueError`` mid-line, and closing on unread input would reset
    the connection before the client reads the error."""
    head: Optional[bytes] = None
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:
            line = error.partial
        except asyncio.LimitOverrunError as error:
            chunk = await reader.readexactly(error.consumed)
            head = chunk[:16] if head is None else head
            continue
        if head is None:
            return line
        raise _LineTooLong(head)


class QueryServer:
    """Serve Boolean queries from one engine session over TCP/HTTP.

    Not thread-safe by design: construct and drive it from one event
    loop (use :class:`ServerThread` to embed in synchronous code).
    """

    def __init__(
        self,
        session: EngineSession,
        config: Optional[ServerConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        ladder: Optional[MethodLadder] = None,
    ) -> None:
        self.session = session
        self.config = config if config is not None else ServerConfig()
        self.registry = registry if registry is not None else get_registry()
        self.ladder = (
            ladder
            if ladder is not None
            else MethodLadder(
                session,
                use_cache=self.config.coalesce,
                default_epsilon=self.config.default_epsilon,
                default_delta=self.config.default_delta,
            )
        )
        if self.config.mode not in ("threads", "processes"):
            raise ValueError(
                f"unknown server mode {self.config.mode!r}; "
                "expected 'threads' or 'processes'"
            )
        self.scenarios = ScenarioManager(
            session.pdb,
            maxsize=self.config.scenario_cache_size,
            registry=self.registry,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._evaluator: Optional[Evaluator] = None
        #: Leader computations by coalesce key; followers await the same future.
        self._inflight: "Dict[tuple, asyncio.Future[Dict[str, Any]]]" = {}
        self._writers: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: "Set[asyncio.Task[None]]" = set()
        self._active_requests = 0
        self._draining = False
        self._started = False
        # -- metrics ----------------------------------------------------------
        reg = self.registry
        self._m_requests = reg.counter(
            "server_requests_total", "requests received (all outcomes)"
        )
        self._m_answers = reg.counter(
            "server_answers_total", "successful answers returned"
        )
        self._m_errors = reg.counter(
            "server_errors_total", "error responses returned"
        )
        self._m_coalesced = reg.counter(
            "server_coalesced_total", "requests served by joining an in-flight twin"
        )
        self._m_overloaded = reg.counter(
            "server_overloaded_total", "requests shed by admission control"
        )
        self._m_timeouts = reg.counter(
            "server_timeouts_total", "requests that hit the hard timeout"
        )
        self._m_shutdown = reg.counter(
            "server_shutting_down_total", "requests refused during drain"
        )
        self._m_rung: Dict[str, Any] = {
            rung: reg.counter(
                f"server_rung_{rung}_total", f"answers served by the {rung} rung"
            )
            for rung in ("exact", "bounds", "sampled")
        }
        self._m_inflight = reg.gauge(
            "server_inflight", "admitted leader computations in flight"
        )
        self._m_latency = reg.histogram(
            "server_request_seconds", "request wall time, admission to response"
        )

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound port (useful with ``port=0``)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        evaluator: Evaluator
        if self.config.mode == "processes":
            from .pool import WorkerPool

            pool = WorkerPool(self.session, self.config, registry=self.registry)
            # start() publishes the shards and blocks until every worker
            # is serving — keep the loop responsive meanwhile.
            await asyncio.get_running_loop().run_in_executor(None, pool.start)
            evaluator = pool
        else:
            evaluator = ThreadEvaluator(self.ladder, self.scenarios, self.config)
        self._evaluator = evaluator
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=_LINE_LIMIT,
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, drain_timeout_s: Optional[float] = None) -> None:
        """Drain gracefully: finish in-flight work, refuse new, close sockets."""
        timeout = (
            drain_timeout_s
            if drain_timeout_s is not None
            else self.config.drain_timeout_s
        )
        self._draining = True
        if self._server is not None:
            self._server.close()
        # In-flight requests run to completion and their responses are
        # flushed; only then are sockets torn down.
        deadline = time.perf_counter() + timeout
        while self._active_requests > 0 and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        # Let connection handlers observe EOF and exit before the loop
        # winds down (a handler cancelled mid-readline logs noisily).
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        if self._server is not None:
            await self._server.wait_closed()
        if self._evaluator is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._evaluator.shutdown)
            self._evaluator = None

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)  # prodb-lint: lockfree -- event-loop confined
        self._writers.add(writer)  # prodb-lint: lockfree -- event-loop confined
        try:
            line = await _read_line(reader)
            if line.startswith(_HTTP_VERBS):
                self._active_requests += 1  # prodb-lint: lockfree -- event-loop confined
                try:
                    await self._handle_http(line, reader, writer)
                finally:
                    self._active_requests -= 1  # prodb-lint: lockfree -- event-loop confined
                return
            while line:
                text = line.decode("utf-8", errors="replace").strip()
                if text:
                    self._active_requests += 1  # prodb-lint: lockfree -- event-loop confined
                    try:
                        response = await self._handle_request(text)
                        writer.write((encode(response) + "\n").encode())
                        await writer.drain()
                    finally:
                        self._active_requests -= 1  # prodb-lint: lockfree -- event-loop confined
                line = await _read_line(reader)
        except _LineTooLong as error:
            # Sniffed like a first line: the shim answers its own header lines.
            await self._refuse_long_line(writer, error.head.startswith(_HTTP_VERBS))
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled a parked read: the connection is dead
            # either way, and finishing cleanly avoids a spurious
            # "exception in callback" log from asyncio.streams on 3.11.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)  # prodb-lint: lockfree -- event-loop confined
            self._writers.discard(writer)  # prodb-lint: lockfree -- event-loop confined
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop already closing
                pass

    async def _refuse_long_line(self, writer: asyncio.StreamWriter, http: bool) -> None:
        """Answer an over-long line with ``bad_request``; the caller closes."""
        self._m_requests.inc()
        self._m_errors.inc()
        message = f"line exceeds the {_LINE_LIMIT}-byte limit; closing the connection"
        if http:
            await self._http_reply(writer, 400, "text/plain", message + "\n")
        else:
            response = error_response(ErrorCode.BAD_REQUEST, message)
            writer.write((encode(response) + "\n").encode())
            await writer.drain()

    # -- request path ---------------------------------------------------------

    async def _handle_request(self, line: str) -> Dict[str, Any]:
        self._m_requests.inc()
        started = time.perf_counter()
        request_id: Optional[str] = None
        try:
            request = decode_request(line)
            request_id = request.id
            if self._draining:
                self._m_shutdown.inc()
                raise ProtocolError(
                    ErrorCode.SHUTTING_DOWN, "server is draining; retry elsewhere"
                )
            if isinstance(request, ConditionRequest):
                response = await self._admit_condition(request)
            elif isinstance(request, DropConditionRequest):
                response = await self._drop_condition(request)
            else:
                response = await self._admit(request)
        except ProtocolError as error:
            self._m_errors.inc()
            response = error_response(error.code, error.message, request_id)
        except Exception as error:  # noqa: BLE001 - server boundary
            self._m_errors.inc()
            response = error_response(
                ErrorCode.INTERNAL, f"{type(error).__name__}: {error}", request_id
            )
        self._m_latency.observe(time.perf_counter() - started)
        return response

    def _respond(
        self, payload: Dict[str, Any], request_id: Optional[str], coalesced: Optional[bool]
    ) -> Dict[str, Any]:
        """One evaluator payload as a response: counted, with the request's
        id, and — on a query answer — whether it was coalesced."""
        response = dict(payload)
        if not response.get("ok"):
            self._m_errors.inc()
        else:
            self._m_answers.inc()
            if coalesced is not None:
                response["coalesced"] = coalesced
        if request_id is not None:
            response["id"] = request_id
        return response

    async def _admit(self, request: QueryRequest) -> Dict[str, Any]:
        assert self._evaluator is not None, "server not started"
        key = request.coalesce_key(self.session.tid.fingerprint())
        leader = self._inflight.get(key) if self.config.coalesce else None
        if leader is not None:
            # Follower: share the leader's computation, never a pool slot.
            self._m_coalesced.inc()
            payload = await self._await_result(leader, request)
            return self._respond(payload, request.id, coalesced=True)

        if len(self._inflight) >= self.config.max_pending:
            self._m_overloaded.inc()
            self._m_errors.inc()
            raise ProtocolError(
                ErrorCode.OVERLOADED,
                f"pending computations at the limit ({self.config.max_pending}); "
                "shedding load — retry with backoff",
            )
        specs = self._scenario_specs(request)
        future = asyncio.wrap_future(self._evaluator.submit(request, specs))
        self._inflight[key] = future  # prodb-lint: lockfree -- event-loop confined
        self._m_inflight.set(len(self._inflight))
        future.add_done_callback(lambda _: self._retire(key))
        payload = await self._await_result(future, request)
        response = self._respond(payload, request.id, coalesced=False)
        rung = response.get("rung")
        if response.get("ok") and isinstance(rung, str) and rung in self._m_rung:
            self._m_rung[rung].inc()
        return response

    def _retire(self, key: tuple) -> None:
        # Runs on the event loop (wrapped futures complete there).
        self._inflight.pop(key, None)  # prodb-lint: lockfree -- event-loop confined
        self._m_inflight.set(len(self._inflight))

    async def _await_result(
        self, future: "asyncio.Future[Dict[str, Any]]", request: QueryRequest
    ) -> Dict[str, Any]:
        timeout = (
            request.timeout_ms / 1e3
            if request.timeout_ms is not None
            else self.config.request_timeout_s
        )
        try:
            # shield: one caller's timeout must not cancel the shared
            # computation other coalesced callers are waiting on.
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self._m_timeouts.inc()
            raise ProtocolError(
                ErrorCode.TIMEOUT,
                f"request exceeded its hard timeout ({timeout:g}s); "
                "the computation keeps running for coalesced peers",
            ) from None

    def _scenario_specs(self, request: QueryRequest) -> Optional[list]:
        """Constraint specs to ship with a scenario query: the evaluator
        re-installs an evicted or crash-lost scenario from them."""
        if request.scenario is None:
            return None
        try:
            return list(self.scenarios.constraints_of(request.scenario).specs())
        except UnknownScenarioError:
            raise ProtocolError(
                ErrorCode.UNKNOWN_SCENARIO,
                f"unknown scenario {request.scenario!r}; install it with "
                "op 'condition' first",
            ) from None

    # -- scenario management --------------------------------------------------

    async def _admit_condition(self, request: ConditionRequest) -> Dict[str, Any]:
        """Install a constraint set through the evaluator; returns its
        content-addressed id, which the front door's manager records."""
        assert self._evaluator is not None, "server not started"
        try:
            gamma = ConstraintSet.parse(request.constraints)
        except ValueError as error:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST, f"bad constraint: {error}"
            ) from error
        sid = scenario_id_of(self.session.tid.fingerprint(), gamma)
        payload = await asyncio.wrap_future(
            self._evaluator.submit_condition(sid, gamma.specs())
        )
        if payload.get("ok"):
            self.scenarios.register(gamma)
        return self._respond(payload, request.id, coalesced=None)

    async def _drop_condition(self, request: DropConditionRequest) -> Dict[str, Any]:
        """Uninstall a scenario everywhere (idempotent)."""
        assert self._evaluator is not None, "server not started"
        dropped = self.scenarios.drop(request.scenario)
        self._evaluator.drop(request.scenario)
        payload = {"ok": True, "scenario": request.scenario, "dropped": dropped}
        return self._respond(payload, request.id, coalesced=None)

    # -- HTTP shim ------------------------------------------------------------

    async def _handle_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self._evaluator is not None, "server not started"
        try:
            method, target, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._http_reply(writer, 400, "text/plain", "bad request line\n")
            return
        content_length = 0
        while True:
            try:
                header = await _read_line(reader)
            except _LineTooLong:
                await self._refuse_long_line(writer, http=True)
                return
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        line: Optional[str] = None
        if method == "GET" and target == "/healthz":
            payload: Dict[str, Any] = {
                "status": "draining" if self._draining else "ok",
                "inflight": len(self._inflight),
                "scenarios": self.scenarios.scenario_count(),
                **self._evaluator.health(),
            }
            code = 503 if payload["status"] == "degraded" else 200
            body = json.dumps(payload)
            await self._http_reply(writer, code, "application/json", body + "\n")
            return
        if method == "GET" and target == "/metrics":
            self._evaluator.refresh_metrics()
            self.registry.gauge(
                "engine_cache_entries", "answers in the session LRU cache"
            ).set(float(len(self.session.cache)))
            self.scenarios.publish_metrics()
            await self._http_reply(
                writer, 200, "text/plain; version=0.0.4", self.registry.render_text()
            )
            return
        if method == "POST" and target in ("/query", "/condition"):
            body_bytes = (
                await reader.readexactly(content_length) if content_length else b""
            )
            line = body_bytes.decode("utf-8", errors="replace")
            if target == "/condition":
                # Same JSON as the NDJSON op, with "op" implied by the route.
                line = _with_op(line, "condition")
        elif method == "DELETE" and target.startswith("/condition/"):
            scenario = target[len("/condition/") :]
            line = encode({"op": "drop_condition", "scenario": scenario})
        if line is None:
            await self._http_reply(
                writer,
                404,
                "text/plain",
                "prodb endpoints: POST /query, POST /condition, "
                "DELETE /condition/<id>, GET /healthz, GET /metrics\n",
            )
            return
        response = await self._handle_request(line)
        code = 200 if response.get("ok") else _HTTP_STATUS.get(response["error"], 500)
        await self._http_reply(writer, code, "application/json", encode(response) + "\n")

    async def _http_reply(
        self, writer: asyncio.StreamWriter, status: int, ctype: str, body: str
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            409: "Conflict",
            503: "Unavailable",
        }
        payload = body.encode()
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'Status')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()


#: HTTP status of each error code on the shim; any other error is a 500.
_HTTP_STATUS = {
    ErrorCode.OVERLOADED.value: 503,
    ErrorCode.SHUTTING_DOWN.value: 503,
    ErrorCode.BAD_REQUEST.value: 400,
    ErrorCode.UNSATISFIABLE.value: 400,
    ErrorCode.UNKNOWN_SCENARIO.value: 404,
    ErrorCode.STALE_SCENARIO.value: 409,
}


def _with_op(body: str, op: str) -> str:
    """Inject the op a REST route implies into a JSON request body."""
    try:
        payload = json.loads(body) if body.strip() else {}
    except json.JSONDecodeError:
        return body  # let decode_request produce the uniform error
    if not isinstance(payload, dict):
        return body
    payload.setdefault("op", op)
    return encode(payload)


class ServerThread:
    """Run a :class:`QueryServer` on a background event-loop thread.

    The synchronous embedding used by tests, benchmarks and the smoke
    script::

        with ServerThread(session) as server:
            with ServerClient("127.0.0.1", server.port) as client:
                client.query("R(x), S(x,y)")

    ``stop()`` (or leaving the ``with`` block) performs the graceful
    drain before joining the thread.
    """

    def __init__(
        self,
        session: EngineSession,
        config: Optional[ServerConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        ladder: Optional[MethodLadder] = None,
    ) -> None:
        import threading

        self._config = config if config is not None else ServerConfig()
        self._loop = asyncio.new_event_loop()
        self.server = QueryServer(
            session, self._config, registry=registry, ladder=ladder
        )
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="prodb-server", daemon=True
        )
        self._stopped = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._ready.set()
        self._loop.run_forever()
        # Drain scheduled callbacks after run_forever stops.
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("server thread did not come up within 10s")
        return self

    @property
    def host(self) -> str:
        return self._config.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, drain_timeout_s: Optional[float] = None) -> None:
        if self._stopped:
            return
        self._stopped = True
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain_timeout_s), self._loop
        )
        future.result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
