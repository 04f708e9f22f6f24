"""The two ways ops reach the program: library calls and the wire.

``LibTarget`` calls the public façade in-process. ``ServerProcess`` runs
``python -m repro serve`` as a subprocess over the generated CSV files and
``ServeTarget`` talks to it over one NDJSON connection. Both take the same
op dictionaries (see :mod:`perfbench.workloads`) and return an ``Outcome``.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import EngineSession, Method
from repro.condition import ScenarioManager
from repro.obs import MetricsRegistry
from repro.relational.io import load_tid
from repro.server import ServerClient

Op = Dict[str, Any]

ROOT = Path(__file__).resolve().parent.parent
#: RNG seed of the program's sampling rungs; constant so that a degraded
#: answer depends on the generated database alone.
ENGINE_SEED = 14
SERVER_WORKERS = 2


def program_env() -> Dict[str, str]:
    """The environment of every process of the program under test: the engine
    on the path and bytecode caching on, as for an installed package. (With
    ``PYTHONDONTWRITEBYTECODE`` inherited from the caller every cold start
    compiles the engine from source: 0.1 s on a 0.25 s set-up that depends
    on nothing the program does.)"""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Outcome:
    """What an op returned: enough to check it and to place it in a class."""

    probability: Optional[float]
    rung: Optional[str] = None
    error: Optional[str] = None
    #: The server's own evaluation time (reply ``elapsed_ms``), when given.
    elapsed_ms: Optional[float] = None
    coalesced: bool = False
    cache_hit: Optional[bool] = None


def check(op: Op, outcome: Outcome) -> bool:
    """Whether *outcome* is the right answer to *op*, on the right rung."""
    if outcome.error is not None:
        return False
    if op.get("expect") is None:
        return True
    if op.get("rung") is not None and outcome.rung != op["rung"]:
        return False
    if outcome.probability is None:
        return False
    return abs(outcome.probability - op["expect"]) <= op["tol"]


class LibTarget:
    """One database, session and scenario registry inside this process."""

    def __init__(self, csv_paths: Sequence[str], scenarios: Sequence[Sequence[str]] = ()):
        self.csv_paths = list(csv_paths)
        self.scenario_specs = [list(specs) for specs in scenarios]
        self.reload()

    def reload(self) -> None:
        """Build everything from the files again (a full state reset)."""
        self.tid = load_tid(self.csv_paths)
        self.session = EngineSession(self.tid, seed=ENGINE_SEED)
        # A private registry: scenario counters are not what is measured,
        # and the process-wide default would outlive the reload.
        self.manager = ScenarioManager(self.session.pdb, registry=MetricsRegistry())
        self.scenario_ids = [self.manager.install(specs)[0] for specs in self.scenario_specs]

    def run(self, op: Op) -> Outcome:
        kind = op["kind"]
        if kind == "query":
            answer = self.session.query(op["query"], Method(op["method"]))
            return Outcome(
                answer.probability,
                cache_hit=bool(answer.stats and answer.stats.cache_hit),
            )
        if kind == "posterior":
            scenario = self.manager.resolve(self.scenario_ids[op["scenario"]])
            return Outcome(scenario.posterior(op["query"]).probability)
        if kind == "whatif":
            scenario = self.manager.derived(self.scenario_ids[op["scenario"]], op["force"])
            return Outcome(scenario.posterior(op["query"]).probability)
        if kind == "tuple_posteriors":
            reports = self.session.tuple_posteriors(op["query"])
            relation, values = op["fact"]
            return Outcome(reports[(relation, tuple(values))].posterior)
        relation, values, probability = op["fact"]
        if kind == "add_fact":
            self.session.add_fact(relation, tuple(values), probability)
        elif kind == "set_fact":
            self.tid.set_fact(relation, tuple(values), probability)
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        return Outcome(None)


# -- the server as a subprocess ---------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # "pid (comm) state ppid ...": comm may itself contain spaces or ')'.
    return text[text.rindex(")") + 2 :].split()


def process_tree(root: int) -> List[int]:
    """*root* and every live descendant of it, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


_TICK = os.sysconf("SC_CLK_TCK")


def tree_cpu_seconds(pids: Sequence[int]) -> float:
    """utime + stime summed over *pids*."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / _TICK


def tree_peak_rss_mb(pids: Sequence[int]) -> float:
    """``VmHWM`` summed over *pids*, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


#: Processes mode publishes one shared-memory segment per relation and keeps
#: a descriptor per segment open, in the server and in every worker:
#: ``family_db`` has 1 620 relations.
_DESCRIPTORS_NEEDED = 4096


def _raise_descriptor_limit() -> None:
    """Lift this process's soft ``RLIMIT_NOFILE`` (children inherit it) when
    it is too low for ``family_db``; a hard limit below that is left alone
    and the server then fails with its own error."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft == resource.RLIM_INFINITY or soft >= _DESCRIPTORS_NEEDED:
        return
    wanted = _DESCRIPTORS_NEEDED if hard == resource.RLIM_INFINITY else min(_DESCRIPTORS_NEEDED, hard)
    resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))


class ServerProcess:
    """``python -m repro serve <csvs> --port 0`` and its process tree."""

    def __init__(self, csv_paths: Sequence[str], mode: str, log_path: Path):
        _raise_descriptor_limit()
        command = [sys.executable, "-m", "repro", "serve", *csv_paths]
        command += ["--port", "0", "--workers", str(SERVER_WORKERS), "--seed", str(ENGINE_SEED)]
        if mode == "processes":
            command += ["--mode", "processes"]
        self.mode = mode
        self._log = log_path.open("w")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=program_env(),
            text=True,
        )
        self.port = self._wait_listening()
        self.pids = process_tree(self.process.pid)

    def _wait_listening(self) -> int:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not come up: {line!r} (see {self._log.name})")
        return int(line.rsplit(":", 1)[1])

    def connect(self) -> ServerClient:
        return ServerClient("127.0.0.1", self.port, timeout_s=120.0)

    def cpu_seconds(self) -> float:
        return tree_cpu_seconds(self.pids)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.pids)

    def stop(self) -> None:
        """SIGINT (graceful drain), wait, then make sure nothing survives."""
        tree = process_tree(self.process.pid) if self.process.poll() is None else []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in tree[1:]:
            # Workers are daemons of the server and exit with it; one still
            # alive here lost its parent to the kill above.
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


class ServeTarget:
    """One NDJSON connection; scenario indexes map to the installed ids."""

    def __init__(self, server: ServerProcess, scenario_ids: Sequence[str]):
        self.client = server.connect()
        self.scenario_ids = list(scenario_ids)

    @staticmethod
    def install(server: ServerProcess, scenarios: Sequence[Sequence[str]]) -> List[str]:
        """Install every scenario over the wire; returns their ids."""
        ids = []
        with server.connect() as client:
            for specs in scenarios:
                reply = client.condition(list(specs))
                if not reply.get("ok"):
                    raise RuntimeError(f"scenario install failed: {reply}")
                ids.append(reply["scenario"])
        return ids

    def payload(self, op: Op) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"query": op["query"], "method": "ladder"}
        if op.get("deadline_ms") is not None:
            payload["deadline_ms"] = op["deadline_ms"]
        if op.get("scenario") is not None:
            payload["scenario"] = self.scenario_ids[op["scenario"]]
        if op.get("force") is not None:
            payload["force"] = op["force"]
        return payload

    def run(self, op: Op) -> Outcome:
        reply = self.client.request(self.payload(op))
        if not reply.get("ok"):
            return Outcome(None, error=f"{reply.get('error')}: {reply.get('message')}")
        return Outcome(
            reply["probability"],
            rung=reply.get("rung"),
            elapsed_ms=reply.get("elapsed_ms"),
            coalesced=bool(reply.get("coalesced")),
        )

    def close(self) -> None:
        self.client.close()
