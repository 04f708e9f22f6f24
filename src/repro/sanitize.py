"""Opt-in runtime sanitizer: audit engine invariants while they happen.

The static rules of ``prodb_lint`` catch invariant violations visible in
the source; this module catches the dynamic ones. It is **off by default**
— every hook returns immediately unless sanitizing was requested — so the
production paths pay one attribute read. Enable it either way:

* environment: ``REPRO_SANITIZE=1 python -m pytest ...``
* programmatically: ``from repro.sanitize import prodb_sanitize;
  prodb_sanitize(True)``

What is audited when enabled:

* **circuit well-formedness** — every circuit recorded by the DPLL counter
  numbers each node after its children (the arena order every pass walks)
  and is re-checked against its target language (FBDD: no repeated decision on
  a path; decision-DNNF: additionally independent ∧; d-DNNF: additionally
  deterministic ∨, checked semantically and therefore only on small
  circuits);
* **OBDD order respect** — levels strictly increase along every edge of a
  compiled diagram;
* **probability domain** — every probability leaving the façade lies in
  ``[0, 1]`` up to :data:`TOLERANCE`; extensional bound sandwiches satisfy
  ``lower ≤ upper``;
* **kernel unique-table consistency** — each interned node is stored under
  exactly the key its structure dictates, and the table holds no aliases;
* **lock ordering** — the engine's locks carry ranks
  (:data:`RANK_WORKER_POOL` < :data:`RANK_WORKER_PIPE` < :data:`RANK_SERVER`
  < :data:`RANK_SCENARIO` < :data:`RANK_CACHE` < :data:`RANK_STATS`
  < :data:`RANK_INTERNER` < :data:`RANK_METRICS`) and a :class:`RankedLock`
  refuses acquisition out of rank order, turning a potential deadlock into
  an immediate :class:`LockOrderError`;
* **lockset race detection** — shared containers created through
  :func:`audited_dict` carry an Eraser-style :class:`RaceDetector`: the
  candidate lockset (locks held at every access once a second thread
  appears) is intersected per access, and a write under an *empty*
  candidate set raises :class:`DataRaceError` carrying the stack traces
  of both conflicting accesses — no unlucky interleaving required.

Failures raise :class:`SanitizerError` subclasses (which extend
``AssertionError``: a sanitizer failure is a broken internal invariant,
never a user error).

This module imports only the standard library, so any engine module —
including :mod:`repro.engine.cache`, which must not import the rest of the
package — can depend on it without creating a cycle.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Any, Dict, Iterable, Optional

__all__ = [
    "BoundsOrderError",
    "CircuitInvariantError",
    "DataRaceError",
    "KernelTableError",
    "LockOrderError",
    "OrderViolationError",
    "ProbabilityDomainError",
    "RANK_CACHE",
    "RANK_INTERNER",
    "RANK_METRICS",
    "RANK_SCENARIO",
    "RANK_SERVER",
    "RANK_STATS",
    "RANK_WORKER_PIPE",
    "RANK_WORKER_POOL",
    "RaceDetector",
    "RankedLock",
    "SanitizerError",
    "TOLERANCE",
    "audit_kernel",
    "audited_dict",
    "check_bounds",
    "check_circuit",
    "check_obdd",
    "check_probability",
    "prodb_sanitize",
    "sanitize_enabled",
]

#: Absolute slack allowed on probability-domain and bound-order checks;
#: exact routes accumulate rounding of this order over long sum/products.
TOLERANCE = 1e-9

#: Node-count cap above which the polynomial circuit audits are skipped
#: (the sanitizer must not turn an O(n) count into the dominant cost).
MAX_AUDIT_NODES = 20_000

#: Variable-count cap for the *semantic* d-DNNF determinism audit, which
#: enumerates assignments per ∨ node.
MAX_SEMANTIC_VARS = 12

_enabled = os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0", "false")


def prodb_sanitize(on: bool = True) -> bool:
    """Enable/disable the sanitizer; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(on)
    return previous


def sanitize_enabled() -> bool:
    return _enabled


class SanitizerError(AssertionError):
    """An engine invariant failed at runtime (sanitizer mode)."""


class CircuitInvariantError(SanitizerError):
    """A compiled circuit violates its target language's invariants."""


class OrderViolationError(SanitizerError):
    """An OBDD edge does not respect the manager's variable order."""


class ProbabilityDomainError(SanitizerError):
    """A probability left the unit interval beyond :data:`TOLERANCE`."""


class BoundsOrderError(SanitizerError):
    """An extensional bound sandwich came out inverted."""


class KernelTableError(SanitizerError):
    """The hash-consing unique table disagrees with node structure."""


class LockOrderError(SanitizerError):
    """Engine locks were acquired out of rank order."""


# -- circuits ----------------------------------------------------------------


def check_circuit(circuit: Any, kind: str = "decision-dnnf") -> None:
    """Audit a :class:`repro.kc.circuits.Circuit` against *kind*.

    *kind* is ``"fbdd"``, ``"decision-dnnf"`` or ``"d-dnnf"``. Oversized
    circuits are skipped (see :data:`MAX_AUDIT_NODES`): the sanitizer is a
    best-effort tripwire, not a proof.
    """
    if not _enabled or circuit is None:
        return
    for index in range(len(circuit.nodes)):
        later = [child for child in circuit.children(index) if child >= index]
        if later:
            raise CircuitInvariantError(
                f"circuit node {index} has children {later} at or after its own "
                "id: the arena is not children-first"
            )
    if circuit.size() > MAX_AUDIT_NODES:
        return
    if kind == "fbdd":
        ok = circuit.check_fbdd()
    elif kind == "decision-dnnf":
        ok = circuit.check_decision_dnnf()
    elif kind == "d-dnnf":
        if len(circuit.variables()) > MAX_SEMANTIC_VARS:
            ok = circuit.check_decision_dnnf()
        else:
            ok = circuit.check_d_dnnf()
    else:
        raise ValueError(f"unknown circuit kind {kind!r}")
    if not ok:
        raise CircuitInvariantError(
            f"compiled circuit violates the {kind} invariants "
            f"({circuit.size()} nodes, root {circuit.root})"
        )


def check_obdd(manager: Any, root: int) -> None:
    """Audit one OBDD root: levels strictly increase along every edge."""
    if not _enabled:
        return
    nodes = manager.circuit.nodes

    def level(index: int) -> int:
        node = nodes[index]
        return len(manager.order) if node is None else manager.level_of(node.var)

    for index in manager.circuit.reachable(root):
        node = nodes[index]
        for child in (node.lo, node.hi):
            if level(child) <= level(index):
                raise OrderViolationError(
                    f"OBDD node {index} (level {level(index)}, variable "
                    f"{node.var}) has child {child} at level "
                    f"{level(child)}: variable order not respected"
                )


# -- probabilities -----------------------------------------------------------


def check_probability(value: float, context: str = "") -> None:
    """Assert ``0 ≤ value ≤ 1`` up to :data:`TOLERANCE`."""
    if not _enabled:
        return
    if not (-TOLERANCE <= value <= 1.0 + TOLERANCE):
        where = f" ({context})" if context else ""
        raise ProbabilityDomainError(
            f"probability {value!r} outside [0, 1]{where}"
        )


def check_bounds(lower: float, upper: float, context: str = "") -> None:
    """Assert a bound sandwich is ordered: ``lower ≤ upper`` up to tolerance."""
    if not _enabled:
        return
    check_probability(lower, context=f"lower bound {context}".strip())
    check_probability(upper, context=f"upper bound {context}".strip())
    if lower > upper + TOLERANCE:
        where = f" ({context})" if context else ""
        raise BoundsOrderError(
            f"inverted bound sandwich: lower {lower!r} > upper {upper!r}{where}"
        )


# -- kernel ------------------------------------------------------------------


def _expected_table_key(node: Any) -> Optional[tuple]:
    """The unique-table key *node*'s structure dictates (None: not tabled)."""
    tag = type(node).__name__
    if tag == "BVar":
        return ("v", node.index)
    if tag == "BNot":
        return ("n", node.sub.nid)
    if tag == "BAnd":
        return ("a", tuple(p.nid for p in node.parts))
    if tag == "BOr":
        return ("o", tuple(p.nid for p in node.parts))
    return None  # constants live on their classes, not in the table


def audit_kernel(manager: Any = None, force: bool = False) -> int:
    """Audit the unique table of *manager* (default: the global kernel).

    Recomputes every live node's structural table key and verifies the
    table stores the node under exactly that key, with no two keys mapping
    to one node. Returns the number of entries audited. Pass ``force=True``
    to audit even when the sanitizer is disabled (used by tests).
    """
    if not _enabled and not force:
        return 0
    if manager is None:
        from .booleans.kernel import DEFAULT_MANAGER

        manager = DEFAULT_MANAGER
    # Snapshot first: iterating a WeakValueDictionary while the GC drops
    # entries is unsafe.
    entries = list(manager.unique.items())
    owner_of: dict[int, tuple] = {}
    for key, node in entries:
        expected = _expected_table_key(node)
        if expected is None:
            raise KernelTableError(
                f"constant node {node!r} found in the unique table under {key!r}"
            )
        if key != expected:
            raise KernelTableError(
                f"unique-table entry {key!r} stores node {node!r} whose "
                f"structure dictates key {expected!r}"
            )
        previous = owner_of.get(node.nid)
        if previous is not None:
            raise KernelTableError(
                f"node nid={node.nid} is tabled under both {previous!r} "
                f"and {key!r}"
            )
        owner_of[node.nid] = key
    return len(entries)


# -- lock ordering -----------------------------------------------------------

#: Rank of the multi-process worker pool's internal locks
#: (:mod:`repro.server.pool`): routing ring and pending-request table.
#: Lowest rank of all — the pool's response-reader thread settles request
#: futures whose callbacks re-enter server-ranked code, so pool locks must
#: never be held while a server lock is taken, only the other way around.
RANK_WORKER_POOL = 3
#: Rank of each worker pipe's send lock (:mod:`repro.server.pool`): held
#: only across the sends to that one worker, never with another lock
#: taken inside it.
RANK_WORKER_PIPE = 4
#: Rank of server-side locks (:mod:`repro.server`): cost-predictor and
#: other request-path state. Server locks may be held only for short
#: container operations, never across a call into the engine session —
#: hence the lowest rank: a server lock can never legally wrap one of the
#: engine's locks.
RANK_SERVER = 5
#: Rank of the conditioning layer's scenario-cache lock
#: (:class:`repro.condition.session.ScenarioManager`): held only for
#: id-table and LRU bookkeeping, never across constraint compilation or
#: a conditioned evaluation. Above the server ranks (the request path
#: resolves scenarios while holding no server lock) and below the
#: engine's cache rank, which the manager's LRU acquires.
RANK_SCENARIO = 7
#: Rank of :class:`repro.engine.cache.LRUCache`'s lock.
RANK_CACHE = 20
#: Rank of :class:`repro.engine.stats.SessionStats`'s lock.
RANK_STATS = 30
#: Rank of :class:`repro.relational.columnar.ValueInterner`'s lock. The
#: interner is a leaf: every method holds the lock only around its own
#: dict operations and calls nothing, so any engine lock may legally wrap
#: it — but it must never wrap the metrics lock (metrics publication
#: never happens under the interner).
RANK_INTERNER = 35
#: Rank of :mod:`repro.obs` metric/registry locks. Highest rank: metrics
#: are published from code already holding engine locks (e.g. stats
#: aggregation), so the metrics lock must be acquirable last.
RANK_METRICS = 40

_held = threading.local()


def _held_stack() -> list:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = _held.stack = []
    return stack


class RankedLock:
    """A lock that, under the sanitizer, enforces rank-ordered acquisition.

    Ranks must strictly increase down any acquisition chain: holding a
    rank-20 lock while taking a rank-10 one raises :class:`LockOrderError`
    on the spot — the deadlock-shaped bug surfaces deterministically
    instead of hanging some unlucky run. Re-entrant re-acquisition of the
    *same* lock is always allowed (the underlying lock is an ``RLock``
    when ``reentrant=True``).

    With the sanitizer off, this is a plain ``with``-able lock with two
    extra attribute reads per acquisition.
    """

    __slots__ = ("_lock", "rank", "name", "reentrant")

    def __init__(self, rank: int, name: str, reentrant: bool = False):
        self.rank = rank
        self.name = name
        self.reentrant = reentrant
        self._lock = threading.RLock() if reentrant else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if _enabled:
            stack = _held_stack()
            if stack:
                top_rank, top_lock = stack[-1]
                held_same = self.reentrant and any(
                    lock is self for _, lock in stack
                )
                if top_rank >= self.rank and not held_same:
                    raise LockOrderError(
                        f"acquiring {self.name!r} (rank {self.rank}) while "
                        f"holding {top_lock.name!r} (rank {top_rank}): lock "
                        "ranks must strictly increase"
                    )
            acquired = self._lock.acquire(blocking, timeout)
            if acquired:
                _held_stack().append((self.rank, self))
            return acquired
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        if _enabled:
            stack = _held_stack()
            for index in range(len(stack) - 1, -1, -1):
                if stack[index][1] is self:
                    del stack[index]
                    break
        self._lock.release()

    def __enter__(self) -> "RankedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def assert_lock_order(ranks: Iterable[int]) -> None:
    """Assert *ranks* (an acquisition chain) is strictly increasing."""
    if not _enabled:
        return
    previous: Optional[int] = None
    for rank in ranks:
        if previous is not None and rank <= previous:
            raise LockOrderError(
                f"lock rank {rank} acquired after rank {previous}: lock "
                "ranks must strictly increase"
            )
        previous = rank


# -- lockset race detection ---------------------------------------------------


class DataRaceError(SanitizerError):
    """Unsynchronized cross-thread access to an audited shared object."""


#: Stack frames kept per recorded access (innermost last). Enough to see
#: through the :class:`_AuditedDict` wrapper into the caller's call chain.
_TRACE_DEPTH = 12


def _access_trace() -> str:
    frames = traceback.extract_stack()[:-3]  # drop detector internals
    return "".join(traceback.format_list(frames[-_TRACE_DEPTH:]))


class RaceDetector:
    """Eraser-style lockset discipline checker for one shared object.

    Call :meth:`record` on every access. The detector runs the classic
    state machine — *virgin* → *exclusive* (single thread) → *shared*
    (second thread reads) → *shared-modified* (second thread writes) —
    and, once sharing starts, intersects the **candidate lockset**: the
    set of locks (tracked by :class:`RankedLock` via the per-thread held
    stack) common to every access so far. A write in *shared-modified*
    state with an empty candidate set means no single lock consistently
    guards the object; that is a data race by discipline, reported with
    the stack traces of the current and the previous access even if this
    particular interleaving happened to be benign.
    """

    __slots__ = ("name", "_state", "_owner", "_lockset", "_last", "_guard")

    def __init__(self, name: str):
        self.name = name
        self._state = "virgin"
        self._owner: Optional[int] = None
        self._lockset: Optional[frozenset] = None
        self._last: Optional[tuple] = None  # (tid, verb, trace)
        # A raw lock on purpose: detector bookkeeping must never appear in
        # the rank order or the candidate locksets it is judging.
        self._guard = threading.Lock()

    def record(self, write: bool) -> None:
        if not _enabled:
            return
        tid = threading.get_ident()
        held = frozenset(id(lock) for _, lock in _held_stack())
        verb = "write" if write else "read"
        trace = _access_trace()
        with self._guard:
            previous = self._last
            self._last = (tid, verb, trace)
            if self._state == "virgin":
                self._state = "exclusive"
                self._owner = tid
                return
            if self._state == "exclusive":
                if tid == self._owner:
                    return
                # Second thread: sharing starts; seed the candidate set.
                self._lockset = held
                self._state = "shared-modified" if write else "shared"
            else:
                assert self._lockset is not None
                self._lockset = self._lockset & held
                if write:
                    self._state = "shared-modified"
            if self._state == "shared-modified" and not self._lockset:
                prev_text = (
                    f"previous access ({previous[1]}) on thread "
                    f"{previous[0]}:\n{previous[2]}"
                    if previous is not None
                    else "previous access: <unrecorded>"
                )
                raise DataRaceError(
                    f"data race on {self.name!r}: no lock consistently "
                    f"guards it across threads.\ncurrent access ({verb}) "
                    f"on thread {tid}:\n{trace}\n{prev_text}"
                )


class _AuditedDict(dict):
    """A dict whose every access feeds a :class:`RaceDetector`."""

    __slots__ = ("races",)

    def __init__(self, name: str):
        super().__init__()
        self.races = RaceDetector(name)

    # reads
    def __getitem__(self, key):
        self.races.record(write=False)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.races.record(write=False)
        return super().__contains__(key)

    def __len__(self):
        self.races.record(write=False)
        return super().__len__()

    def __iter__(self):
        self.races.record(write=False)
        return super().__iter__()

    def get(self, key, default=None):
        self.races.record(write=False)
        return super().get(key, default)

    def keys(self):
        self.races.record(write=False)
        return super().keys()

    def values(self):
        self.races.record(write=False)
        return super().values()

    def items(self):
        self.races.record(write=False)
        return super().items()

    # writes
    def __setitem__(self, key, value):
        self.races.record(write=True)
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.races.record(write=True)
        super().__delitem__(key)

    def pop(self, key, *default):
        self.races.record(write=True)
        return super().pop(key, *default)

    def popitem(self):
        self.races.record(write=True)
        return super().popitem()

    def setdefault(self, key, default=None):
        self.races.record(write=True)
        return super().setdefault(key, default)

    def update(self, *args, **kwargs):
        self.races.record(write=True)
        super().update(*args, **kwargs)

    def clear(self):
        self.races.record(write=True)
        super().clear()


def audited_dict(name: str) -> Dict:
    """A dict that, under the sanitizer, detects lockset discipline races.

    With sanitizing off this returns a plain ``{}`` — zero overhead and
    no behavioural difference. With it on, every access runs through a
    :class:`RaceDetector` named *name*, so an unsynchronized cross-thread
    access pattern raises :class:`DataRaceError` deterministically.
    Holders must mutate in place (``d.clear()``, never ``d = {}``) or the
    detector is silently dropped with the old dict.
    """
    if not _enabled:
        return {}
    return _AuditedDict(name)
