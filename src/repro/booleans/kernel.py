"""The hash-consing kernel behind :mod:`repro.booleans.expr`.

Every structurally-distinct Boolean expression is *interned*: the node
constructors consult a :class:`NodeManager` unique table, so two
constructions of the same formula return the **same object**, carrying a
small integer id (``nid``). Downstream this buys

* O(1) equality (identity) and O(1) cache keys (ints) where the pre-kernel
  code hashed O(|subtree|) nested structural tuples;
* a per-node ``variables()`` frozenset computed once at intern time, so a
  restriction returns a subtree that mentions no assigned variable
  unchanged in O(1).

The kernel keeps no memo table: a restriction memoizes shared subformulas
per call (:mod:`repro.booleans.ops`), and a count caches per run.

The unique table keys are ``(tag, child ids...)`` tuples: children are
interned before their parents, so the ids identify the children up to
structural equality and interning one node costs O(arity), not O(size).

Memory is bounded by construction, not by explicit resets: the unique
table holds its nodes through **weak references** (children are strong
slots of their parents, so a live root keeps its whole subtree interned).
Once nothing outside the kernel references an expression, the garbage
collector drops it and its table entry — a long-lived process that
releases its lineages (e.g. via
:meth:`repro.engine.session.EngineSession.invalidate`) releases the
expression memory too. Node ids are monotonic and never reused, so an
nid-keyed cache entry for a dead node can go stale but never alias a
fresh one.

:meth:`NodeManager.reset` drops the table at once (useful in
benchmarks measuring cold-table behavior), with the caveat that
expressions from before the reset no longer share identity with ones
built after it; ``BExpr.__eq__`` falls back to structural comparison for
exactly this cross-generation case.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .expr import BExpr


@dataclass(frozen=True)
class KernelStatistics:
    """A snapshot of one :class:`NodeManager`'s counters.

    ``unique_nodes`` is the live size of the (process-wide) unique table;
    the hit/miss counters are **per thread** (see
    :class:`_ThreadLocalCounters`), so before/after deltas taken around a
    computation attribute exactly that thread's traffic — correct even
    while other serving threads run other queries concurrently.
    """

    unique_nodes: int
    intern_hits: int
    intern_misses: int

    def __str__(self) -> str:
        return (
            f"{self.unique_nodes} unique nodes, "
            f"intern {self.intern_hits} hits / {self.intern_misses} misses"
        )


class _ThreadLocalCounters(threading.local):
    """Intern hit/miss counters, one independent set per thread.

    The table they describe is shared process-wide, but attributing
    traffic per thread is what makes per-query deltas meaningful: each
    :meth:`repro.wmc.dpll.DPLLCounter.run` executes on a single thread,
    so its before/after snapshot never includes a concurrent query's
    interning.
    """

    def __init__(self) -> None:
        self.intern_hits = 0
        self.intern_misses = 0


class NodeManager:
    """The unique table of interned Boolean expressions.

    ``intern_misses`` equals the number of nodes actually allocated by the
    current thread; ``intern_hits`` counts constructions served by the
    table (allocations the pre-kernel representation would have paid for).
    """

    __slots__ = ("unique", "counters", "_ids")

    def __init__(self) -> None:
        self.unique: "weakref.WeakValueDictionary[Hashable, BExpr]" = (
            weakref.WeakValueDictionary()
        )
        self.counters = _ThreadLocalCounters()
        # Monotonic across resets so stale nid-keyed entries never collide.
        self._ids = itertools.count()

    def next_id(self) -> int:
        return next(self._ids)

    def intern(self, key: Hashable, node: "BExpr") -> "BExpr":
        """Insert *node* under *key* unless an equal node already exists.

        A lost race between serving threads can briefly yield two
        structurally-equal objects with distinct ids; that is benign —
        ``BExpr.__eq__`` falls back to structural comparison, and nid-keyed
        caches merely miss once.
        """
        # Deliberately lock-free: dict.setdefault is atomic under the GIL,
        # and the lost-race case is benign per the docstring above.
        winner = self.unique.setdefault(key, node)  # prodb-lint: lockfree
        if winner is node:
            self.counters.intern_misses += 1
        else:
            self.counters.intern_hits += 1
        return winner

    def snapshot(self) -> KernelStatistics:
        """Current table size plus the calling thread's counters."""
        counters = self.counters
        return KernelStatistics(
            unique_nodes=len(self.unique),
            intern_hits=counters.intern_hits,
            intern_misses=counters.intern_misses,
        )

    def reset(self) -> None:
        """Drop the unique table and zero all counters.

        Expressions alive across the reset stop sharing identity with
        newly built ones (``__eq__`` handles that structurally); the
        constant singletons survive because they live on their classes,
        not in the table. Counters on *other* threads reset too, since the
        whole thread-local set is replaced.
        """
        self.unique = weakref.WeakValueDictionary()
        self.counters = _ThreadLocalCounters()


#: The process-wide manager used by the expression constructors.
DEFAULT_MANAGER = NodeManager()


def kernel_statistics() -> KernelStatistics:
    """A snapshot of the default manager: global table size, this thread's
    counters."""
    return DEFAULT_MANAGER.snapshot()


def reset_kernel() -> None:
    """Reset the default manager (see :meth:`NodeManager.reset` caveats)."""
    DEFAULT_MANAGER.reset()
