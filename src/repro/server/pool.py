"""A pool of worker *processes* behind the asyncio front door.

The thread-pool serving mode is GIL-bound: one cold exact computation
occupies the whole interpreter. This module scales out instead — N
``spawn``/``forkserver`` worker processes, each owning a private
:class:`~repro.engine.session.EngineSession` over the **same** bytes:
the pool publishes the database once as shared-memory columnar shards
(:mod:`repro.relational.shm`) and every worker attaches read-only,
zero-copy. A worker answers through the same
:func:`~repro.server.service.evaluate` / ``install`` functions as the
thread pool, so both modes shape every payload identically.

Routing is a consistent-hash ring over
``(db_fingerprint, query_fingerprint)``: a given query always lands on
the same worker, so that worker's answer/lineage caches stay hot and the
pool's aggregate cache capacity is the *sum* of the per-worker caches
rather than N copies of one. When a worker dies the ring re-routes only
the keys it owned.

Transport: each worker owns one duplex ``Pipe``. A worker is sent a
message only while it is idle — the parent keeps each worker's backlog
and sends the next request once the previous one is answered — so no
send ever waits on a busy worker's full pipe. One reader thread runs
``multiprocessing.connection.wait`` over every live connection and every
process ``sentinel``.

Crash semantics: a worker's death wakes the reader through its sentinel
(or the end-of-file on its pipe) when it happens; only that worker's
pipe goes down. The reader fails it out of the ring and re-queues each
of its requests **once** onto a surviving worker; a request that already
used its retry — or that finds no survivors — is settled with an
explicit ``overloaded`` error. A killed worker therefore never yields a
hung or corrupted reply, only a served or explicitly-shed one.

Self-healing: with ``ServerConfig.restart_workers`` (the default) a
crashed worker is respawned with capped exponential backoff (first retry
after 0.5 s, doubling up to 30 s; the backoff never resets, so a
flapping worker keeps slowing down). The replacement attaches the same
shared shards, re-joins the ring on its ``ready`` message, and
transparently re-installs any conditioning scenario the next routed
query names (query messages carry the full constraint specs).
``server_worker_restarts_total`` counts successful respawns; ``/healthz``
reflects them via the per-worker ``restarts`` field and flips back from
``degraded`` once the replacement is up.

Lock discipline: the pool lock ranks
:data:`~repro.sanitize.RANK_WORKER_POOL` — below every server and engine
lock — and guards the worker table, ring and pending requests; it is
never held across a send or while settling futures. Each worker's pipe
lock (:data:`~repro.sanitize.RANK_WORKER_PIPE`) serializes the sends to
that one worker.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import signal
import threading
import time
from bisect import bisect_right, insort
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from ..engine.cache import query_fingerprint
from ..engine.session import EngineSession
from ..obs import MetricsRegistry, get_registry
from ..relational.shm import DatabaseHandle, attach, publish
from ..sanitize import RANK_WORKER_PIPE, RANK_WORKER_POOL, RankedLock, audited_dict
from .protocol import ErrorCode, ProtocolError, QueryRequest
from .service import ServerConfig, evaluate, install

__all__ = ["WorkerPool"]

#: Worker-side idle heartbeat period; also the reader's longest sleep.
_HEARTBEAT_S = 0.5

#: How long :meth:`WorkerPool.start` waits for every worker to serve.
_START_TIMEOUT_S = 60.0

#: Respawn backoff: first delay and cap, seconds.
_RESTART_BACKOFF_S = (0.5, 30.0)

#: How many times a request orphaned by a worker crash is re-queued
#: before it is shed with ``overloaded``.
_MAX_REQUEUES = 1

#: Virtual nodes per worker on the consistent-hash ring.
_RING_REPLICAS = 64

#: Worker gauge names whose pool-wide *sum* is meaningful; merged into
#: ``server_workers_<name>`` alongside the monotone counter keys.
_MERGED_GAUGES = frozenset(
    {"engine_cache_entries", "scenario_circuits_cached", "scenarios_installed"}
)


def mp_context() -> multiprocessing.context.BaseContext:
    """The start method the worker pool spawns its processes with.

    Never ``fork``: by the time the pool spawns workers the parent may
    already run an asyncio loop, thread pools and ranked locks, and
    forking duplicates held locks and live threads into the child
    mid-state. ``forkserver`` keeps child startup cheap (the server
    process imports the package once, before any threads exist) and
    ``spawn`` is the portable fallback.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


# -- worker process ----------------------------------------------------------


def _worker_main(
    handle: DatabaseHandle,
    config: ServerConfig,
    settings: Dict[str, Any],
    conn: Connection,
) -> None:
    """Entry point of one worker process.

    Attaches the shared shards, builds a private session + ladder, then
    answers its pipe until told to stop or the parent goes away; idle gaps
    send heartbeats carrying this process's metrics snapshot so the parent
    can merge them.
    """
    # A terminal Ctrl-C signals the whole foreground process group; the
    # parent owns the drain (stop messages after in-flight work settles),
    # so workers must not die mid-request with a KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        from ..condition.session import ScenarioManager
        from ..core.pdb import ProbabilisticDatabase
        from ..plans.vectorized import seed_scan_cache
        from .ladder import MethodLadder

        shards = attach(handle)  # interner snapshot → this process's default
        db = shards.to_tid()  # fingerprint-verified against the handle
        seed_scan_cache(db, shards.columnar)
        session = EngineSession(
            ProbabilisticDatabase(tid=db, **settings),
            cache_size=config.worker_cache_size or 0,  # resolved by the pool
        )
        ladder = MethodLadder(
            session,
            use_cache=config.coalesce,
            default_epsilon=config.default_epsilon,
            default_delta=config.default_delta,
        )
        scenarios = ScenarioManager(session.pdb, maxsize=config.scenario_cache_size)
    except BaseException as error:  # noqa: BLE001 - report, then die
        conn.send({"kind": "failed", "message": repr(error)})
        raise
    registry = get_registry()

    def snapshot() -> Dict[str, float]:
        # Publish this worker's occupancy gauges right before snapshotting
        # so the parent's merged /metrics view stays current.
        registry.gauge(
            "engine_cache_entries", "engine cache entries resident"
        ).set(len(session.cache))
        scenarios.publish_metrics()
        return registry.snapshot()

    try:
        conn.send({"kind": "ready"})
        while True:
            if not conn.poll(_HEARTBEAT_S):
                conn.send({"kind": "heartbeat", "metrics": snapshot()})
                continue
            message = conn.recv()
            op = message["op"]
            if op == "stop":
                return
            if op == "drop":
                # Fire-and-forget: the parent already answered the client.
                scenarios.drop(message["scenario"])
                continue
            if op == "condition":
                payload = install(scenarios, message["specs"])
            else:
                payload = evaluate(
                    ladder,
                    scenarios,
                    message["request"],
                    message["specs"],
                    config.default_deadline_s,
                )
            conn.send(
                {
                    "kind": "answer",
                    "seq": message["seq"],
                    "payload": payload,
                    "metrics": snapshot(),
                }
            )
    except (EOFError, OSError):
        return  # the parent is gone: nobody is left to answer


# -- consistent hashing ------------------------------------------------------


def _ring_hash(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class _HashRing:
    """A deterministic consistent-hash ring over worker indices."""

    def __init__(self) -> None:
        self._points: List[Tuple[int, int]] = []  # sorted (hash, worker)

    def add(self, worker: int) -> None:
        for replica in range(_RING_REPLICAS):
            insort(self._points, (_ring_hash(f"worker:{worker}:{replica}"), worker))

    def remove(self, worker: int) -> None:
        self._points = [p for p in self._points if p[1] != worker]

    def route(self, key: str) -> Optional[int]:
        if not self._points:
            return None
        position = bisect_right(self._points, (_ring_hash(key), -1))
        if position == len(self._points):
            position = 0
        return self._points[position][1]


# -- parent-side pool --------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker process."""

    index: int
    process: Any
    #: The parent's end of the worker's pipe; None once the worker is reaped.
    conn: Optional[Connection]
    send_lock: RankedLock = field(
        default_factory=lambda: RankedLock(RANK_WORKER_PIPE, "server.pool.pipe")
    )
    #: Messages not yet sent: the worker gets the next one when idle.
    backlog: Deque[Dict[str, Any]] = field(default_factory=deque)
    busy: bool = False  # a sent request is not answered yet
    alive: bool = False  # in the ring: ready received, not reaped since
    last_seen: float = field(default_factory=time.monotonic)
    metrics: Optional[Dict[str, float]] = None
    restarts: int = 0  # successful respawns (ready received)
    respawn_at: Optional[float] = None  # monotonic deadline for next respawn
    backoff_s: float = 0.0  # current restart backoff (doubles, capped)


@dataclass
class _Pending:
    """One routed request awaiting its answer."""

    future: "Future[Dict[str, Any]]"
    worker: int
    message: Dict[str, Any]
    requeues: int = 0


class WorkerPool:
    """``config.workers`` worker processes over the session's database,
    published as shared shards, with affinity routing.

    The :class:`~repro.server.service.Evaluator` of processes mode: its
    futures are resolved by the reader thread, and all public methods are
    thread-safe. Workers rebuild the façade from
    :meth:`~repro.core.pdb.ProbabilisticDatabase.settings`; their caches
    hold ``config.worker_cache_size`` entries (default: the session's).
    """

    def __init__(
        self,
        session: EngineSession,
        config: ServerConfig,
        *,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if config.workers < 1:
            raise ValueError("worker pool needs at least one worker")
        if config.worker_cache_size is None:
            config = replace(config, worker_cache_size=session.cache.maxsize)
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self._tid = session.tid
        self._settings = session.pdb.settings()
        self._shards: Any = None
        self._lock = RankedLock(RANK_WORKER_POOL, "server.pool")
        self._workers: List[_Worker] = []
        self._pending: Dict[int, _Pending] = audited_dict("pool.pending")
        self._ring = _HashRing()
        self._seq = 0
        self._stopping = False
        self._context: Any = None
        self._reader: Optional[threading.Thread] = None
        self._up = threading.Event()  # every worker served once, or one failed
        self._failure: Optional[str] = None
        reg = self.registry
        self._m_crashes = reg.counter("server_worker_crashes_total", "worker processes found dead")
        self._m_restarts = reg.counter(
            "server_worker_restarts_total", "crashed workers successfully respawned"
        )
        self._m_requeued = reg.counter(
            "server_requeued_total", "orphaned requests re-queued after a crash"
        )
        #: Per-worker gauges, keyed like the ``/healthz`` worker fields.
        self._m_workers = [
            {
                "alive": reg.gauge(
                    f"server_worker_{i}_alive", f"1 while worker {i}'s process is alive"
                ),
                "queue_depth": reg.gauge(
                    f"server_worker_{i}_queue_depth",
                    f"requests submitted to worker {i} and not yet answered",
                ),
                "heartbeat_age_s": reg.gauge(
                    f"server_worker_{i}_heartbeat_age_seconds",
                    f"seconds since worker {i} last reported in",
                ),
            }
            for i in range(config.workers)
        ]

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Publish the shards, spawn the workers, wait until all serve."""
        if self._context is not None:
            raise RuntimeError("worker pool already started")
        self._context = mp_context()
        try:
            self._shards = publish(self._tid)
            spawned = [_Worker(i, *self._spawn(i)) for i in range(self.config.workers)]
            with self._lock:
                self._workers.extend(spawned)
            self._reader = threading.Thread(
                target=self._read, name="prodb-pool-reader", daemon=True
            )
            self._reader.start()
            if not self._up.wait(_START_TIMEOUT_S):
                raise RuntimeError(
                    f"worker pool: not every worker came up within {_START_TIMEOUT_S:g}s"
                )
            if self._failure is not None:
                raise RuntimeError(self._failure)
        except BaseException:
            self.shutdown()
            raise

    def _spawn(self, index: int) -> Tuple[Any, Connection]:
        """Start one worker process on a fresh pipe; returns it and our end."""
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(self._shards.handle, self.config, self._settings, child_conn),
            name=f"prodb-pool-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker's end lives on in the worker only
        return process, conn

    def shutdown(self) -> None:
        """Stop the workers, settle unanswered futures, free the shards."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            workers = list(self._workers)
            orphans = list(self._pending.values())
            # In place, not rebound: rebinding would drop the race detector
            # attached by audited_dict().
            self._pending.clear()
        for entry in orphans:
            entry.future.set_exception(
                ProtocolError(ErrorCode.SHUTTING_DOWN, "server is draining; retry elsewhere")
            )
        for worker in workers:
            self._send(worker, worker.conn, [{"op": "stop"}])
        deadline = time.monotonic() + 10.0
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=5.0)
        for worker in workers:
            self._close(worker)
        if self._shards is not None:
            self._shards.unlink()
            self._shards = None

    # -- submission ------------------------------------------------------------

    def submit(
        self, request: QueryRequest, specs: Optional[Sequence[str]]
    ) -> "Future[Dict[str, Any]]":
        """Route *request* to its affinity worker; resolve via the reader.

        A scenario-carrying request routes on ``(db, scenario_id)`` so
        every query against one scenario lands on the worker holding its
        compiled circuit; *specs* rides along for install-on-miss (fresh
        or restarted workers re-condition transparently).
        """
        if request.scenario is not None:
            key = self._scenario_key(request.scenario)
        else:
            key = f"{self._shards.handle.fingerprint}|{query_fingerprint(request.query)}"
        return self._route(key, {"op": "query", "request": request, "specs": specs})

    def submit_condition(
        self, scenario_id: str, specs: Sequence[str]
    ) -> "Future[Dict[str, Any]]":
        """Install a constraint set on the scenario's ring owner."""
        message = {"op": "condition", "specs": list(specs)}
        return self._route(self._scenario_key(scenario_id), message)

    def drop(self, scenario_id: str) -> None:
        """Tell every live worker to forget a scenario (fire-and-forget)."""
        with self._lock:
            targets = [w for w in self._workers if w.alive and not self._stopping]
            for worker in targets:
                worker.backlog.append({"op": "drop", "scenario": scenario_id})
        for worker in targets:
            self._pump(worker)

    def _scenario_key(self, scenario_id: str) -> str:
        return f"{self._shards.handle.fingerprint}|scenario:{scenario_id}"

    def _route(self, key: str, message: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        future: "Future[Dict[str, Any]]" = Future()
        # Claimed up front: a waiter can no longer cancel it under the
        # reader thread, which settles it exactly once.
        future.set_running_or_notify_cancel()
        with self._lock:
            if self._stopping:
                raise ProtocolError(
                    ErrorCode.SHUTTING_DOWN, "server is draining; retry elsewhere"
                )
            index = self._ring.route(key)
            if index is None:
                raise ProtocolError(
                    ErrorCode.OVERLOADED,
                    "no live workers; shedding load — retry with backoff",
                )
            message["seq"] = seq = self._seq
            self._seq += 1
            self._pending[seq] = _Pending(future, index, message)
            worker = self._workers[index]
            worker.backlog.append(message)
        self._pump(worker)
        return future

    def _pump(self, worker: _Worker) -> None:
        """Send an idle *worker* its backlog, through the next request.

        A message goes out only while the worker has no request in hand,
        so every send lands on a worker that is reading its pipe: at most
        one request plus a few drop notices are ever in flight, far below
        the pipe buffer, and no caller — the reader thread included —
        blocks on a busy worker.
        """
        batch: List[Dict[str, Any]] = []
        with self._lock:
            conn = worker.conn
            while worker.backlog and not worker.busy and conn is not None:
                message = worker.backlog.popleft()
                batch.append(message)
                worker.busy = "seq" in message
        if batch:
            self._send(worker, conn, batch)

    def _send(
        self, worker: _Worker, conn: Optional[Connection], batch: List[Dict[str, Any]]
    ) -> None:
        """Send *batch* on *conn*, unless that pipe has been closed since."""
        with worker.send_lock:
            if conn is None or conn is not worker.conn:
                return  # reaped: the reader requeued what it owed
            try:
                for message in batch:
                    conn.send(message)
            except (OSError, ValueError):
                pass  # died mid-send: its sentinel wakes the reader

    def _close(self, worker: _Worker) -> None:
        with worker.send_lock:
            if worker.conn is not None:
                worker.conn.close()
                worker.conn = None

    # -- reader thread ---------------------------------------------------------

    def _read(self) -> None:
        """Wait on every pipe and sentinel; settle answers, reap the dead."""
        while True:
            with self._lock:
                if self._stopping and not self._pending:
                    return
                live: Dict[Any, _Worker] = {
                    w.conn: w for w in self._workers if w.conn is not None
                }
                sentinels = {w.process.sentinel: w for w in live.values()}
                respawns = [w.respawn_at for w in self._workers if w.respawn_at]
            timeout = min([_HEARTBEAT_S, *(at - time.monotonic() for at in respawns)])
            ready = wait([*live, *sentinels], max(0.0, timeout))
            for source in ready:
                if source in live:
                    self._drain(live[source])
            for source in ready:
                if source in sentinels:
                    self._reap(sentinels[source])
            self._respawn_due()

    def _drain(self, worker: _Worker) -> None:
        """Handle every message waiting on *worker*'s pipe."""
        conn = worker.conn
        try:
            while conn is not None and conn.poll():
                self._on_message(worker, conn.recv())
        except (EOFError, OSError):  # end of file, or a message torn by its death
            self._reap(worker)

    def _on_message(self, worker: _Worker, message: Dict[str, Any]) -> None:
        kind = message["kind"]
        entry: Optional[_Pending] = None
        with self._lock:
            worker.last_seen = time.monotonic()
            if "metrics" in message:
                worker.metrics = message["metrics"]
            if kind == "answer":
                entry = self._pending.pop(message["seq"], None)
                worker.busy = False
            elif kind == "ready":
                worker.alive = True
                self._ring.add(worker.index)
                if self._up.is_set():  # every ready after start is a respawn
                    worker.restarts += 1
                    self._m_restarts.inc()
                elif all(w.alive for w in self._workers):
                    self._up.set()
            elif kind == "failed" and not self._up.is_set():
                self._failure = f"worker {worker.index} failed to start: {message['message']}"
                self._up.set()
        if entry is not None:
            entry.future.set_result(message["payload"])
        if kind == "answer":
            self._pump(worker)

    def _reap(self, worker: _Worker) -> None:
        """Fail a dead worker out of the ring; requeue or shed its orphans."""
        shed: List[_Pending] = []
        survivors: List[_Worker] = []
        with self._lock:
            if worker.conn is None:
                return  # already reaped (pipe EOF and sentinel both fired)
            if worker.alive:
                self._ring.remove(worker.index)
            worker.alive = worker.busy = False
            worker.backlog.clear()
            if not self._stopping:
                self._m_crashes.inc()
                if self.config.restart_workers:
                    # Capped exponential backoff; never reset, so a
                    # crash-looping worker keeps slowing down.
                    first, cap = _RESTART_BACKOFF_S
                    worker.backoff_s = min(max(worker.backoff_s * 2.0, first), cap)
                    worker.respawn_at = time.monotonic() + worker.backoff_s
            for seq, entry in list(self._pending.items()):
                if entry.worker != worker.index:
                    continue
                target: Optional[int] = None
                if entry.requeues < _MAX_REQUEUES:
                    target = self._ring.route(f"requeue:{seq}")
                if target is None:
                    del self._pending[seq]
                    shed.append(entry)
                    continue
                entry.requeues += 1
                entry.worker = target
                survivor = self._workers[target]
                survivor.backlog.append(entry.message)
                survivors.append(survivor)
                self._m_requeued.inc()
        self._close(worker)
        for survivor in survivors:
            self._pump(survivor)
        for entry in shed:
            entry.future.set_exception(
                ProtocolError(
                    ErrorCode.OVERLOADED,
                    "worker process died mid-computation; request shed — "
                    "retry with backoff",
                )
            )

    def _respawn_due(self) -> None:
        """Respawn reaped workers whose backoff deadline has passed.

        Runs on the reader thread only, so claiming a worker (clearing
        ``respawn_at`` under the lock) cannot race another restarter; the
        spawn itself happens outside the lock. The replacement joins the
        ring when its ``ready`` message arrives — a replacement that dies
        during init is reaped and rescheduled with doubled backoff like
        any other crash.
        """
        now = time.monotonic()
        with self._lock:
            if self._stopping:
                return
            due = [w for w in self._workers if w.respawn_at and w.respawn_at <= now]
            for worker in due:
                worker.respawn_at = None
        for worker in due:
            process, conn = self._spawn(worker.index)
            with self._lock:
                worker.process, worker.conn = process, conn
                worker.last_seen = time.monotonic()

    # -- observability ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``/healthz`` fields: per-worker liveness; degraded if any is dead."""
        workers = self._publish()
        out: Dict[str, Any] = {"mode": "processes", "workers": workers}
        if not all(worker["alive"] for worker in workers):
            out["status"] = "degraded"
        return out

    def refresh_metrics(self) -> None:
        self._publish()

    def _publish(self) -> List[Dict[str, Any]]:
        """Publish per-worker gauges and merge worker counters (as gauges);
        returns the per-worker liveness records behind them.

        Quantile-style snapshot keys cannot be merged by summation, so
        only monotone ``*_total`` / ``*_count`` / ``*_sum`` keys aggregate
        into ``server_workers_<name>`` — plus the occupancy gauges in
        ``_MERGED_GAUGES``, whose pool-wide sum is the meaningful figure
        (aggregate cache capacity is the sum of per-worker caches).
        """
        now = time.monotonic()
        merged: Dict[str, float] = {}
        with self._lock:
            depth = [0] * len(self._workers)
            for entry in self._pending.values():
                depth[entry.worker] += 1
            workers = [
                {
                    "worker": worker.index,
                    "pid": worker.process.pid,
                    "alive": worker.alive and worker.process.is_alive(),
                    "queue_depth": depth[worker.index],
                    "heartbeat_age_s": round(now - worker.last_seen, 3),
                    "restarts": worker.restarts,
                }
                for worker in self._workers
            ]
            for worker in self._workers:
                for name, value in (worker.metrics or {}).items():
                    if (
                        name.endswith(("_total", "_count", "_sum"))
                        or name in _MERGED_GAUGES
                    ):
                        merged[name] = merged.get(name, 0.0) + float(value)
        for info in workers:
            for name, gauge in self._m_workers[info["worker"]].items():
                gauge.set(float(info[name]))
        for name, value in merged.items():
            self.registry.gauge(
                f"server_workers_{name}", "summed across pool workers"
            ).set(value)
        return workers
