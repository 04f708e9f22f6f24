"""prodb-flow: the whole-program concurrency analyzer.

Each rule gets a violating fixture and a clean one, built as mini-projects
under tmp_path (a pyproject.toml marks the root). The self-analysis test
runs the analyzer over the repository's own ``src`` tree and asserts it is
clean — the same gate CI enforces. The dynamic half (the Eraser-style
lockset race detector from ``repro.sanitize``) is property-tested with
hypothesis: an unsynchronized two-thread dict workload must be flagged no
matter the operation mix, and the same workload under one consistent
RankedLock must stay quiet.
"""

import sys
import threading
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

from prodb_flow import RULES, analyze, build_program  # noqa: E402
from prodb_flow.locks import LocksetPass  # noqa: E402
from prodb_flow.report import write_lockgraph, write_sarif  # noqa: E402

from repro.sanitize import (  # noqa: E402
    DataRaceError,
    RankedLock,
    audited_dict,
    prodb_sanitize,
)

PYPROJECT = '[project]\nname = "fixture"\n'

#: A miniature rank system every fixture can import; mirrors the shape of
#: ``repro.sanitize`` (the PF102 scope check exempts the defining module).
SANITIZE = """\
import threading

RANK_LOW = 1
RANK_MID = 5
RANK_HIGH = 9


class RankedLock:
    def __init__(self, rank, name, reentrant=False):
        self.rank = rank
        self.name = name
        self._lock = threading.RLock() if reentrant else threading.Lock()

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
"""


def make_project(tmp_path: Path, files: dict) -> Path:
    (tmp_path / "pyproject.toml").write_text(PYPROJECT)
    files = {"pkg/__init__.py": "", "pkg/sanitize.py": SANITIZE, **files}
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def run_flow(tmp_path: Path, files: dict):
    root = make_project(tmp_path, files)
    program = build_program([str(root / "pkg")], root=str(root))
    return analyze(program)


def codes(findings):
    return [f.code for f in findings]


# -- PF101: rank inversion ----------------------------------------------------


INVERTED = """\
from .sanitize import RANK_HIGH, RANK_LOW, RankedLock


class Engine:
    def __init__(self):
        self.high = RankedLock(RANK_HIGH, "engine.high")
        self.low = RankedLock(RANK_LOW, "engine.low")

    def _helper(self):
        with self.low:
            return 1

    def entry(self):
        with self.high:
            return self._helper()
"""


def test_pf101_rank_inversion_through_helper(tmp_path):
    findings = run_flow(tmp_path, {"pkg/engine.py": INVERTED})
    assert codes(findings) == ["PF101"]
    finding = findings[0]
    # The message names the chain and both acquisition sites.
    assert "engine.low" in finding.message and "engine.high" in finding.message
    assert "chain:" in finding.message
    assert "pkg/engine.py:10" in finding.message  # acquiring site in chain
    assert "pkg/engine.py:14" in finding.message  # held-lock site
    assert finding.related, "inversion must carry the held lock's location"
    assert finding.related[0].line == 14


def test_pf101_clean_when_monotonic(tmp_path):
    ordered = INVERTED.replace(
        "with self.high:\n            return self._helper()",
        "return self._helper()",
    )
    assert run_flow(tmp_path, {"pkg/engine.py": ordered}) == []


def test_pf101_equal_rank_allowed_only_through_may_alias(tmp_path):
    shared = """\
from .sanitize import RANK_MID, RankedLock


class Metric:
    def __init__(self, lock=None):
        self._lock = lock if lock is not None else RankedLock(RANK_MID, "m")

    def inc(self):
        with self._lock:
            pass


class Registry:
    def __init__(self):
        self._lock = RankedLock(RANK_MID, "registry")
        self.metric = Metric(self._lock)

    def bump(self):
        with self._lock:
            self.metric.inc()
"""
    assert run_flow(tmp_path, {"pkg/metrics.py": shared}) == []


# -- PF102 / PF104: raw and unresolvable locks --------------------------------


def test_pf102_raw_lock_flagged_and_rank_pragma_silences(tmp_path):
    raw = """\
import threading


class Holder:
    def __init__(self):
        self._lock = threading.Lock()
"""
    findings = run_flow(tmp_path, {"pkg/holder.py": raw})
    assert codes(findings) == ["PF102"]
    assert "escapes the rank system" in findings[0].message

    annotated = raw.replace(
        "self._lock = threading.Lock()",
        "self._lock = threading.Lock()  "
        "# prodb-lint: rank=7 -- leaf lock, audited by hand",
    )
    assert run_flow(tmp_path, {"pkg/holder.py": annotated}) == []


def test_pf104_unresolvable_rank(tmp_path):
    dynamic = """\
from .sanitize import RankedLock


def build(rank):
    lock = RankedLock(rank, "dynamic")
    return lock
"""
    findings = run_flow(tmp_path, {"pkg/dyn.py": dynamic})
    assert codes(findings) == ["PF104"]


# -- PF103: await under lock --------------------------------------------------


def test_pf103_await_under_lock(tmp_path):
    parked = """\
import asyncio

from .sanitize import RANK_LOW, RankedLock


class Engine:
    def __init__(self):
        self.lock = RankedLock(RANK_LOW, "engine.lock")

    async def bad(self):
        with self.lock:
            await asyncio.sleep(0)

    async def good(self):
        with self.lock:
            value = 1
        await asyncio.sleep(0)
        return value
"""
    findings = run_flow(tmp_path, {"pkg/engine.py": parked})
    assert codes(findings) == ["PF103"]
    assert findings[0].line == 12


# -- PF201 / PF202: event-loop confinement ------------------------------------


CROSS_THREAD = """\
import asyncio
import threading


class Service:
    def __init__(self):
        self._writers: set[asyncio.StreamWriter] = set()
        self._loop = None

    def _bg(self):
        for writer in list(self._writers):
            writer.write(b"x")

    def start(self):
        threading.Thread(target=self._bg).start()
"""


def test_pf201_cross_thread_writer_touch(tmp_path):
    findings = run_flow(tmp_path, {"pkg/service.py": CROSS_THREAD})
    assert "PF201" in codes(findings)
    finding = next(f for f in findings if f.code == "PF201")
    assert "Service._writers" in finding.message
    assert finding.related, "confinement breach must name the thread entry"


def test_pf201_quiet_when_routed_threadsafe(tmp_path):
    routed = CROSS_THREAD.replace(
        "        for writer in list(self._writers):\n"
        "            writer.write(b\"x\")",
        "        self._loop.call_soon_threadsafe(self._touch)\n\n"
        "    def _touch(self):\n"
        "        for writer in list(self._writers):\n"
        "            writer.write(b\"x\")",
    )
    assert run_flow(tmp_path, {"pkg/service.py": routed}) == []


def test_pf201_pragma_declared_loop_owned(tmp_path):
    declared = """\
import threading


class Service:
    def __init__(self):
        self._jobs = {}  # prodb-lint: loop-owned -- settled by loop callbacks

    def _bg(self):
        self._jobs.clear()

    def start(self):
        threading.Thread(target=self._bg).start()
"""
    findings = run_flow(tmp_path, {"pkg/service.py": declared})
    assert "PF201" in codes(findings)
    assert "Service._jobs" in findings[0].message


def test_pf202_loop_owned_handoff_to_thread(tmp_path):
    handoff = """\
import asyncio
import threading


def _consume(writer):
    writer.write(b"x")


class Service:
    def __init__(self):
        self.writer: asyncio.StreamWriter = None

    def start(self):
        threading.Thread(target=_consume, args=(self.writer,)).start()
"""
    findings = run_flow(tmp_path, {"pkg/service.py": handoff})
    assert "PF202" in codes(findings)


# -- PF301 / PF302: the shm and pickle boundaries -----------------------------


SHM = """\
class AttachedShards:
    def __init__(self, columnar):
        self.columnar = columnar

    def to_tid(self):
        return dict(self.columnar)


def attach(handle) -> "AttachedShards":
    return AttachedShards(handle)
"""


def test_pf301_mutation_of_attached_shards(tmp_path):
    mutator = """\
from .shm import attach


def corrupt(handle):
    shards = attach(handle)
    view = shards.columnar
    view[0] = 1
    view.fill(0)
"""
    findings = run_flow(
        tmp_path, {"pkg/shm.py": SHM, "pkg/mutate.py": mutator}
    )
    assert codes(findings) == ["PF301", "PF301"]


def test_pf301_interprocedural_taint(tmp_path):
    mutator = """\
from .shm import attach


def helper(columnar):
    columnar.sort()


def entry(handle):
    helper(attach(handle).columnar)
"""
    files = {"pkg/shm.py": SHM, "pkg/mutate.py": mutator}
    # The taint reaches helper() through the argument... unless the value
    # passes through a call first.
    program = build_program(
        [str(make_project(tmp_path, files) / "pkg")], root=str(tmp_path)
    )
    found = analyze(program)
    assert "PF301" in codes(found)


def test_pf301_clean_through_call_results(tmp_path):
    decoder = """\
from .shm import attach


def decode(handle):
    shards = attach(handle)
    rebuilt = shards.to_tid()
    rebuilt["x"] = 1
    return rebuilt
"""
    findings = run_flow(
        tmp_path, {"pkg/shm.py": SHM, "pkg/decode.py": decoder}
    )
    assert findings == []


def test_pf302_lambda_and_bound_method(tmp_path):
    boundary = """\
import multiprocessing


def _worker_main(index):
    return index


class Pool:
    def spawn(self, index, request_queue, conn):
        bad = multiprocessing.Process(target=self._handle, args=(index,))
        good = multiprocessing.Process(target=_worker_main, args=(index,))
        request_queue.put({"op": "run", "fn": lambda: 1})
        request_queue.put({"op": "run", "seq": index})
        conn.send({"op": "run", "fn": lambda: 2})
        conn.send({"op": "run", "seq": index})
        return bad, good

    def _handle(self, index):
        return index
"""
    findings = run_flow(tmp_path, {"pkg/pool.py": boundary})
    assert codes(findings) == ["PF302", "PF302", "PF302"]
    assert any("bound method" in f.message for f in findings)
    assert any("lambda" in f.message and "queue put" in f.message for f in findings)
    assert any("lambda" in f.message and "pipe send" in f.message for f in findings)


# -- pragmas ------------------------------------------------------------------


def test_pf000_suppression_without_justification(tmp_path):
    raw = """\
import threading


class Holder:
    def __init__(self):
        self._lock = threading.Lock()  # prodb-lint: disable=PF102
"""
    findings = run_flow(tmp_path, {"pkg/holder.py": raw})
    assert codes(findings) == ["PF000"]

    justified = raw.replace(
        "# prodb-lint: disable=PF102",
        "# prodb-lint: disable=PF102 -- guards nothing rank-ordered",
    )
    assert run_flow(tmp_path, {"pkg/holder.py": justified}) == []


# -- output formats -----------------------------------------------------------


def test_sarif_and_lockgraph(tmp_path):
    root = make_project(tmp_path, {"pkg/engine.py": INVERTED})
    program = build_program([str(root / "pkg")], root=str(root))
    lockset = LocksetPass(program)
    findings = lockset.run()
    sarif = write_sarif(findings, RULES)
    assert '"ruleId": "PF101"' in sarif
    assert '"name": "prodb-flow"' in sarif
    assert "relatedLocations" in sarif
    dot = write_lockgraph(lockset.lock_nodes, lockset.edges)
    assert dot.startswith("digraph lockorder")
    assert "color=red" in dot  # the inversion edge
    assert "rank 9" in dot and "rank 1" in dot


def test_cli_exit_codes(tmp_path):
    from prodb_flow.cli import main

    root = make_project(tmp_path, {"pkg/engine.py": INVERTED})
    assert main([str(root / "pkg"), "--root", str(root)]) == 1
    assert main(["--list-rules"]) == 0


# -- self-analysis ------------------------------------------------------------


def test_repo_src_tree_is_clean():
    repo = Path(__file__).resolve().parent.parent
    program = build_program([str(repo / "src")], root=str(repo))
    findings = analyze(program)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_repo_lockgraph_is_rank_monotonic():
    repo = Path(__file__).resolve().parent.parent
    program = build_program([str(repo / "src")], root=str(repo))
    lockset = LocksetPass(program)
    lockset.run()
    ranks = {key: rank for key, (_, rank) in lockset.lock_nodes.items()}
    for edge in lockset.edges:
        assert not edge.violation, edge
        src_rank, dst_rank = ranks.get(edge.src), ranks.get(edge.dst)
        if src_rank is not None and dst_rank is not None:
            assert src_rank < dst_rank, edge


# -- the dynamic race detector ------------------------------------------------


@contextmanager
def sanitizing():
    """Enable the sanitizer for one block (hypothesis re-runs test bodies
    without resetting function-scoped fixtures, so a context manager it
    is)."""
    previous = prodb_sanitize(True)
    try:
        yield
    finally:
        prodb_sanitize(previous)


def _run_two_threads(work):
    """Run *work* on two distinct threads, one strictly after the other.

    Eraser-style lockset checking flags discipline violations without
    needing a real interleaving — but the first thread must stay alive
    while the second runs, or the OS may reuse its thread ident and the
    detector would (correctly) see a single thread.
    """
    errors = []
    first_done = threading.Event()
    release_first = threading.Event()

    def first():
        try:
            work()
        except DataRaceError as error:
            errors.append(error)
        first_done.set()
        release_first.wait(10)

    def second():
        first_done.wait(10)
        try:
            work()
        except DataRaceError as error:
            errors.append(error)

    thread_a = threading.Thread(target=first)
    thread_b = threading.Thread(target=second)
    thread_a.start()
    thread_b.start()
    thread_b.join()
    release_first.set()
    thread_a.join()
    return errors


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["set", "get", "pop", "len"]),
                  st.integers(0, 7)),
        min_size=4,
        max_size=30,
    )
)
def test_unsynchronized_shared_dict_is_flagged(ops):
    if not any(op in ("set", "pop") for op, _ in ops):
        ops = ops + [("set", 0)]
    with sanitizing():
        shared = audited_dict("fixture.unsync")

        def work():
            for op, key in ops:
                if op == "set":
                    shared[key] = key
                elif op == "get":
                    shared.get(key)
                elif op == "pop":
                    shared.pop(key, None)
                else:
                    len(shared)

        errors = _run_two_threads(work)
    assert errors, "unsynchronized cross-thread writes must be flagged"
    message = str(errors[0])
    assert message.count("thread") >= 2  # both access traces present
    assert "fixture.unsync" in message


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["set", "get", "pop", "len"]),
                  st.integers(0, 7)),
        min_size=4,
        max_size=30,
    )
)
def test_rankedlock_guarded_dict_is_quiet(ops):
    with sanitizing():
        shared = audited_dict("fixture.guarded")
        guard = RankedLock(25, "fixture.guard")

        def work():
            for op, key in ops:
                with guard:
                    if op == "set":
                        shared[key] = key
                    elif op == "get":
                        shared.get(key)
                    elif op == "pop":
                        shared.pop(key, None)
                    else:
                        len(shared)

        assert _run_two_threads(work) == []


def test_race_report_carries_both_stack_traces():
    with sanitizing():
        shared = audited_dict("fixture.traces")

        def work():
            shared["k"] = 1

        errors = _run_two_threads(work)
    assert errors
    message = str(errors[0])
    assert "current access (write)" in message
    assert "previous access" in message
    assert message.count("test_prodb_flow.py") >= 2


def test_audited_dict_plain_when_disabled():
    previous = prodb_sanitize(False)
    try:
        assert type(audited_dict("plain")) is dict
    finally:
        prodb_sanitize(previous)
