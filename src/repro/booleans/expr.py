"""Boolean expressions over integer-indexed variables.

Lineages (Sec. 7 of the paper) are Boolean formulas whose variables stand for
tuples of a TID. This module provides an immutable, *hash-consed* AST with
light simplification at construction time:

* ``BAnd``/``BOr`` are n-ary, flatten, deduplicate, sort their children into
  a canonical order and apply unit/complement laws;
* ``BNot`` cancels double negation;
* every construction goes through the unique table of
  :data:`repro.booleans.kernel.DEFAULT_MANAGER`, so structurally equal
  formulas are the **same object** with the same small integer id
  (:attr:`BExpr.nid`) — equality is an identity check and cache keys are
  ints, where the pre-kernel representation hashed O(|subtree|) nested
  tuples;
* every node caches its ``variables()`` frozenset, computed once at intern
  time.

The nested structural key of the old representation survives as
:meth:`BExpr.key` for callers that need an order or a cross-generation
comparison; it is built once per interned node from the children's keys.

Variables are plain ints. The mapping from ints back to database tuples lives
in :class:`repro.lineage.build.LineageResult`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .kernel import DEFAULT_MANAGER


class BExpr:
    """Base class of interned Boolean expression nodes.

    Instances are immutable by convention and unique per structure: do not
    mutate the slots after construction, and always build nodes through the
    public constructors so the unique table stays canonical.
    """

    __slots__ = ("nid", "_key", "_hash", "_vars", "__weakref__")

    nid: int
    _key: tuple
    _hash: int
    _vars: frozenset[int]

    def key(self) -> tuple:
        """A structural key: equal keys ⇔ equal expressions."""
        return self._key

    def __and__(self, other: "BExpr") -> "BExpr":
        return BAnd.of((self, other))

    def __or__(self, other: "BExpr") -> "BExpr":
        return BOr.of((self, other))

    def __invert__(self) -> "BExpr":
        return bnot(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        # Structural fallback: only reachable for nodes from different
        # kernel generations (see NodeManager.reset).
        return type(other) is type(self) and other._key == self._key  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash

    def children(self) -> tuple["BExpr", ...]:
        return ()

    def walk(self) -> Iterator["BExpr"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def variables(self) -> frozenset[int]:
        """The set of variable indices occurring in the expression (O(1))."""
        return self._vars

    def node_count(self) -> int:
        """Number of AST nodes (duplicates counted per occurrence)."""
        return 1 + sum(c.node_count() for c in self.children())

    def is_constant(self) -> bool:
        return isinstance(self, (BTrue, BFalse))


_NO_VARS: frozenset[int] = frozenset()


class BTrue(BExpr):
    """The constant true (a singleton)."""

    __slots__ = ()
    _instance: "BTrue" = None  # type: ignore[assignment]

    def __new__(cls) -> "BTrue":
        instance = cls._instance
        if instance is None:
            instance = object.__new__(cls)
            instance.nid = DEFAULT_MANAGER.next_id()
            instance._key = ("1",)
            instance._hash = hash(("1",))
            instance._vars = _NO_VARS
            cls._instance = instance
        return instance

    def __reduce__(self) -> tuple:
        return (BTrue, ())

    def __repr__(self) -> str:
        return "BTrue()"

    def __str__(self) -> str:
        return "true"


class BFalse(BExpr):
    """The constant false (a singleton)."""

    __slots__ = ()
    _instance: "BFalse" = None  # type: ignore[assignment]

    def __new__(cls) -> "BFalse":
        instance = cls._instance
        if instance is None:
            instance = object.__new__(cls)
            instance.nid = DEFAULT_MANAGER.next_id()
            instance._key = ("0",)
            instance._hash = hash(("0",))
            instance._vars = _NO_VARS
            cls._instance = instance
        return instance

    def __reduce__(self) -> tuple:
        return (BFalse, ())

    def __repr__(self) -> str:
        return "BFalse()"

    def __str__(self) -> str:
        return "false"


B_TRUE = BTrue()
B_FALSE = BFalse()


class BVar(BExpr):
    """A Boolean variable, identified by a non-negative integer index."""

    __slots__ = ("index",)

    index: int

    def __new__(cls, index: int) -> "BVar":
        manager = DEFAULT_MANAGER
        key = ("v", index)
        node = manager.unique.get(key)
        if node is not None:
            manager.counters.intern_hits += 1
            return node  # type: ignore[return-value]
        self = object.__new__(cls)
        self.index = index
        self.nid = manager.next_id()
        self._key = key
        self._hash = hash(key)
        self._vars = frozenset((index,))
        return manager.intern(key, self)  # type: ignore[return-value]

    def __reduce__(self) -> tuple:
        return (BVar, (self.index,))

    def __repr__(self) -> str:
        return f"BVar(index={self.index!r})"

    def __str__(self) -> str:
        return f"x{self.index}"


class BNot(BExpr):
    """Negation. Build via :func:`bnot` to get simplification."""

    __slots__ = ("sub",)

    sub: BExpr

    def __new__(cls, sub: BExpr) -> "BNot":
        manager = DEFAULT_MANAGER
        table_key = ("n", sub.nid)
        node = manager.unique.get(table_key)
        if node is not None:
            manager.counters.intern_hits += 1
            return node  # type: ignore[return-value]
        self = object.__new__(cls)
        self.sub = sub
        self.nid = manager.next_id()
        self._key = ("n", sub._key)
        self._hash = hash(("n", sub._hash))
        self._vars = sub._vars
        return manager.intern(table_key, self)  # type: ignore[return-value]

    def children(self) -> tuple[BExpr, ...]:
        return (self.sub,)

    def __reduce__(self) -> tuple:
        return (BNot, (self.sub,))

    def __repr__(self) -> str:
        return f"BNot(sub={self.sub!r})"

    def __str__(self) -> str:
        return f"~{_wrap(self.sub)}"


def bnot(expr: BExpr) -> BExpr:
    """Negation with double-negation and constant simplification."""
    if expr is B_TRUE:
        return B_FALSE
    if expr is B_FALSE:
        return B_TRUE
    if isinstance(expr, BNot):
        return expr.sub
    return BNot(expr)


def _gather(cls, parts: Iterable[BExpr]) -> list[BExpr]:
    out: list[BExpr] = []
    for part in parts:
        if isinstance(part, cls):
            out.extend(part.parts)
        else:
            out.append(part)
    return out


def _structural_key(node: BExpr) -> tuple:
    return node._key


class BAnd(BExpr):
    """N-ary conjunction with canonically ordered children."""

    __slots__ = ("parts",)

    parts: tuple[BExpr, ...]

    def __new__(cls, parts: tuple[BExpr, ...]) -> "BAnd":
        manager = DEFAULT_MANAGER
        parts = tuple(parts)
        table_key = ("a", tuple(p.nid for p in parts))
        node = manager.unique.get(table_key)
        if node is not None:
            manager.counters.intern_hits += 1
            return node  # type: ignore[return-value]
        self = object.__new__(cls)
        self.parts = parts
        self.nid = manager.next_id()
        self._key = ("a", tuple(p._key for p in parts))
        self._hash = hash(("a", tuple(p._hash for p in parts)))
        self._vars = frozenset().union(*(p._vars for p in parts))
        return manager.intern(table_key, self)  # type: ignore[return-value]

    @staticmethod
    def of(parts: Iterable[BExpr]) -> BExpr:
        flat = _gather(BAnd, parts)
        seen: dict[int, BExpr] = {}
        for p in flat:
            if p is B_FALSE:
                return B_FALSE
            if p is B_TRUE:
                continue
            seen.setdefault(p.nid, p)
        # complement law: x ∧ ¬x = false
        for p in seen.values():
            if type(p) is BNot and p.sub.nid in seen:
                return B_FALSE
        ordered = tuple(sorted(seen.values(), key=_structural_key))
        if not ordered:
            return B_TRUE
        if len(ordered) == 1:
            return ordered[0]
        return BAnd(ordered)

    def children(self) -> tuple[BExpr, ...]:
        return self.parts

    def __reduce__(self) -> tuple:
        return (BAnd, (self.parts,))

    def __repr__(self) -> str:
        return f"BAnd(parts={self.parts!r})"

    def __str__(self) -> str:
        return " & ".join(_wrap(p) for p in self.parts)


class BOr(BExpr):
    """N-ary disjunction with canonically ordered children."""

    __slots__ = ("parts",)

    parts: tuple[BExpr, ...]

    def __new__(cls, parts: tuple[BExpr, ...]) -> "BOr":
        manager = DEFAULT_MANAGER
        parts = tuple(parts)
        table_key = ("o", tuple(p.nid for p in parts))
        node = manager.unique.get(table_key)
        if node is not None:
            manager.counters.intern_hits += 1
            return node  # type: ignore[return-value]
        self = object.__new__(cls)
        self.parts = parts
        self.nid = manager.next_id()
        self._key = ("o", tuple(p._key for p in parts))
        self._hash = hash(("o", tuple(p._hash for p in parts)))
        self._vars = frozenset().union(*(p._vars for p in parts))
        return manager.intern(table_key, self)  # type: ignore[return-value]

    @staticmethod
    def of(parts: Iterable[BExpr]) -> BExpr:
        flat = _gather(BOr, parts)
        seen: dict[int, BExpr] = {}
        for p in flat:
            if p is B_TRUE:
                return B_TRUE
            if p is B_FALSE:
                continue
            seen.setdefault(p.nid, p)
        # complement law: x ∨ ¬x = true
        for p in seen.values():
            if type(p) is BNot and p.sub.nid in seen:
                return B_TRUE
        ordered = tuple(sorted(seen.values(), key=_structural_key))
        if not ordered:
            return B_FALSE
        if len(ordered) == 1:
            return ordered[0]
        return BOr(ordered)

    def children(self) -> tuple[BExpr, ...]:
        return self.parts

    def __reduce__(self) -> tuple:
        return (BOr, (self.parts,))

    def __repr__(self) -> str:
        return f"BOr(parts={self.parts!r})"

    def __str__(self) -> str:
        return " | ".join(_wrap(p) for p in self.parts)


def _wrap(expr: BExpr) -> str:
    if isinstance(expr, (BVar, BTrue, BFalse, BNot)):
        return str(expr)
    return f"({expr})"


def band(*parts: BExpr) -> BExpr:
    """Conjunction helper."""
    return BAnd.of(parts)


def bor(*parts: BExpr) -> BExpr:
    """Disjunction helper."""
    return BOr.of(parts)


def bvar(index: int) -> BVar:
    """Variable helper."""
    return BVar(index)


def evaluate(expr: BExpr, assignment: Mapping[int, bool]) -> bool:
    """Evaluate under a total assignment of the expression's variables.

    Hash-consed expressions are DAGs: a shared subformula appears once in
    memory but on many paths, so a naive tree walk can revisit it
    exponentially often. A per-call memo keyed by node id makes this a
    single pass over the distinct nodes — which matters to callers that
    evaluate the same large constraint circuit once per sampled world
    (:func:`repro.wmc.karp_luby.karp_luby` under a constraint Γ).
    """
    memo: dict[int, bool] = {}

    def walk(node: BExpr) -> bool:
        if isinstance(node, BTrue):
            return True
        if isinstance(node, BFalse):
            return False
        if isinstance(node, BVar):
            return bool(assignment[node.index])
        cached = memo.get(node.nid)
        if cached is not None:
            return cached
        if isinstance(node, BNot):
            result = not walk(node.sub)
        elif isinstance(node, BAnd):
            result = all(walk(p) for p in node.parts)
        elif isinstance(node, BOr):
            result = any(walk(p) for p in node.parts)
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[node.nid] = result
        return result

    return walk(expr)
