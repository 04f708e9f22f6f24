"""The hash-consing kernel behind :mod:`repro.booleans.expr`.

Every structurally-distinct Boolean expression is *interned*: the node
constructors consult a :class:`NodeManager` unique table, so two
constructions of the same formula return the **same object**, carrying a
small integer id (``nid``). Downstream this buys

* O(1) equality (identity) and O(1) cache keys (ints) where the pre-kernel
  code hashed O(|subtree|) nested structural tuples;
* a per-node ``variables()`` frozenset computed once at intern time;
* process-wide memo tables — cofactors keyed ``(nid, var, value)`` and
  independent factors keyed ``nid`` — so repeated Shannon expansions of
  shared subformulas are O(1) after the first computation.

The unique table keys are ``(tag, child ids...)`` tuples: children are
interned before their parents, so the ids identify the children up to
structural equality and interning one node costs O(arity), not O(size).

Memory is bounded by construction, not by explicit resets:

* the unique table holds its nodes through **weak references**
  (children are strong slots of their parents, so a live root keeps its
  whole subtree interned): once nothing outside the kernel references an
  expression, the garbage collector drops it and its table entry — a
  long-lived process that releases its lineages (e.g. via
  :meth:`repro.engine.session.EngineSession.invalidate`) releases the
  expression memory too;
* the memo tables hold plain strong entries but are **size-capped** at
  :attr:`NodeManager.memo_limit`: on overflow a table is cleared
  wholesale, and :meth:`NodeManager.clear_memos` (called by
  ``EngineSession.invalidate``) drops them on demand — the memos are
  pure caches, so clearing only costs recomputation. Node ids are
  monotonic and never reused, so a memo entry for a dead node can go
  stale but can never alias a fresh one.

:meth:`NodeManager.reset` still drops everything at once (useful in
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
    cofactor_hits: int
    cofactor_misses: int
    factor_hits: int
    factor_misses: int

    def __str__(self) -> str:
        return (
            f"{self.unique_nodes} unique nodes, "
            f"intern {self.intern_hits} hits / {self.intern_misses} misses, "
            f"cofactor memo {self.cofactor_hits} hits / "
            f"{self.cofactor_misses} misses"
        )


class _ThreadLocalCounters(threading.local):
    """Hit/miss counters, one independent set per thread.

    The tables they describe are shared process-wide, but attributing
    traffic per thread is what makes per-query deltas meaningful: each
    :meth:`repro.wmc.dpll.DPLLCounter.run` executes on a single thread,
    so its before/after snapshot never includes a concurrent query's
    interning or memo hits.
    """

    def __init__(self) -> None:
        self.intern_hits = 0
        self.intern_misses = 0
        self.cofactor_hits = 0
        self.cofactor_misses = 0
        self.factor_hits = 0
        self.factor_misses = 0


class NodeManager:
    """Unique table plus memo tables for interned Boolean expressions.

    ``intern_misses`` equals the number of nodes actually allocated by the
    current thread; ``intern_hits`` counts constructions served by the
    table (allocations the pre-kernel representation would have paid for).
    """

    __slots__ = (
        "unique",
        "cofactor_memo",
        "factors_memo",
        "branch_memo",
        "memo_limit",
        "counters",
        "_ids",
    )

    #: Default cap on each memo table (entries); see :attr:`memo_limit`.
    DEFAULT_MEMO_LIMIT = 1 << 18

    def __init__(self, memo_limit: int = DEFAULT_MEMO_LIMIT) -> None:
        self.unique: "weakref.WeakValueDictionary[Hashable, BExpr]" = (
            weakref.WeakValueDictionary()
        )
        self.cofactor_memo: dict[tuple[int, int, bool], "BExpr"] = {}
        self.factors_memo: dict[int, tuple["BExpr", ...]] = {}
        self.branch_memo: dict[int, int] = {}
        #: Each memo table is cleared wholesale when it reaches this many
        #: entries, bounding the strong references the kernel retains.
        self.memo_limit = memo_limit
        self.counters = _ThreadLocalCounters()
        # Monotonic across resets so stale memo keys can never collide.
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
            cofactor_hits=counters.cofactor_hits,
            cofactor_misses=counters.cofactor_misses,
            factor_hits=counters.factor_hits,
            factor_misses=counters.factor_misses,
        )

    def clear_memos(self) -> None:
        """Drop the cofactor/factor/branch memo tables.

        Always sound — the memos are pure caches — and, unlike
        :meth:`reset`, this touches neither the unique table nor the
        counters, so interned identity is preserved. It releases the
        strong references that keep otherwise-dead expressions alive
        (the unique table itself holds nodes only weakly).
        """
        # Deliberately lock-free: dict.clear() is atomic under the GIL and
        # the memos are pure caches — a concurrent reader at worst misses.
        self.cofactor_memo.clear()  # prodb-lint: lockfree
        self.factors_memo.clear()  # prodb-lint: lockfree
        self.branch_memo.clear()  # prodb-lint: lockfree

    def reset(self) -> None:
        """Drop the unique table and memo tables and zero all counters.

        Expressions alive across the reset stop sharing identity with
        newly built ones (``__eq__`` handles that structurally); the
        constant singletons survive because they live on their classes,
        not in the table. Counters on *other* threads reset too, since the
        whole thread-local set is replaced.
        """
        self.unique = weakref.WeakValueDictionary()
        self.clear_memos()
        self.counters = _ThreadLocalCounters()


#: The process-wide manager used by the expression constructors.
DEFAULT_MANAGER = NodeManager()


def kernel_statistics() -> KernelStatistics:
    """A snapshot of the default manager: global table size, this thread's
    counters."""
    return DEFAULT_MANAGER.snapshot()


def clear_kernel_memos() -> None:
    """Clear the default manager's memo tables (always sound; see
    :meth:`NodeManager.clear_memos`)."""
    DEFAULT_MANAGER.clear_memos()


def reset_kernel() -> None:
    """Reset the default manager (see :meth:`NodeManager.reset` caveats)."""
    DEFAULT_MANAGER.reset()
