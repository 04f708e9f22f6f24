"""Columnar (vectorized) relations: the executor of extensional plans.

The paper's central scaling claim (Sec. 6) is that safe queries evaluate
*extensionally* — inside ordinary relational query processing — in
polynomial time. This module is the MonetDB/X100-style engine every safe
plan runs on: a relation is a set of dictionary-encoded value columns plus
one float64 probability vector, and every operator is a handful of numpy
array passes with **zero per-row Python in the hot loop**.

Layout
------
* Values of any hashable Python type are interned once into a process-wide
  :class:`ValueInterner`; a column is then an ``int64`` array of codes.
  Code equality is value equality, so equality-based operators (hash join,
  group-by, selection) work directly on codes and never touch the values.
* Probabilities ride along as one ``float64`` vector per relation.

Operators
---------
* :func:`join` — sort/searchsorted hash join on the shared attributes that
  multiplies probabilities (the extensional ⋈ of Sec. 6);
* :func:`independent_project` — grouped ⊕-aggregation computed in log
  space: ``1 ⊖ Π(1-pᵢ)`` becomes ``-expm1(Σ log1p(-pᵢ))`` via
  ``np.bincount``, which is numerically stable for thousands of near-zero
  (or exactly-one) probabilities in one group;
* :func:`select_mask` / :func:`select_eq`, :func:`union` (⊕ on duplicate
  rows, the same policy as :meth:`repro.relational.relation.Relation.add`),
  :func:`cartesian_product` and :func:`boolean_oplus`.

The tuple-at-a-time operators of :mod:`repro.relational.algebra` define the
same semantics one row at a time; tests pin every operator here to them.

Converting to and from the row representation
(:func:`from_relation` / :meth:`ColumnarRelation.to_relation`) is the only
per-row work, and it happens once per base relation at the scan boundary —
:mod:`repro.plans.vectorized` memoizes the encoded form per database
version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..sanitize import RANK_INTERNER, RankedLock
from .relation import Relation

__all__ = [
    "ColumnarRelation",
    "ValueInterner",
    "boolean_oplus",
    "cartesian_product",
    "from_relation",
    "independent_project",
    "join",
    "select_eq",
    "select_mask",
    "union",
]


class ValueInterner:
    """A process-wide value ↔ ``int64`` code dictionary.

    Codes are assigned on first sight and never change, so two columns
    encoded at different times (even for different relations) agree on
    every shared value — which is what lets :func:`join` compare raw code
    arrays. Thread-safe: scans from the worker threads of threads-mode
    serving may encode simultaneously.
    """

    def __init__(self) -> None:
        self._codes: dict[object, int] = {}
        self._lock = RankedLock(RANK_INTERNER, "relational.interner")

    def __len__(self) -> int:
        return len(self._codes)

    def encode_column(self, values: Sequence[object]) -> "np.ndarray":
        """Encode one column of values into an ``int64`` code array."""
        codes = self._codes
        with self._lock:
            out = np.empty(len(values), dtype=np.int64)
            for i, value in enumerate(values):
                code = codes.get(value)
                if code is None:
                    code = len(codes)
                    codes[value] = code
                out[i] = code
        return out

    def code_of(self, value: object) -> Optional[int]:
        """The code of *value*, or None when it was never interned.

        A never-seen value cannot occur in any encoded column, so callers
        (e.g. :func:`select_eq`) can report an empty result without
        interning garbage.
        """
        return self._codes.get(value)

    def decode_column(self, codes: "np.ndarray") -> list:
        """Codes back to values (boundary use only; O(rows) Python)."""
        with self._lock:
            values: list[object] = [None] * len(self._codes)
            for value, code in self._codes.items():
                values[code] = value
        return [values[c] for c in codes]

    def snapshot(self) -> list:
        """The dictionary as a list of values ordered by code.

        Codes are dense (0..n-1 in first-sight order), so the list *is*
        the whole mapping: ``snapshot()[code] == value``. This is the
        transportable form used to ship the dictionary to worker
        processes — see :meth:`load_snapshot` and
        :mod:`repro.relational.shm`.
        """
        with self._lock:
            values = [None] * len(self._codes)
            for value, code in self._codes.items():
                values[code] = value
        return values

    def load_snapshot(self, values: Sequence[object]) -> None:
        """Install a snapshot so this interner agrees code-for-code.

        Loading into a fresh interner reproduces the source dictionary
        bit-for-bit. Loading into a non-empty one is allowed only when
        every assignment agrees (the snapshot extends, or is a prefix of,
        the existing dictionary) — a conflicting code would silently
        re-label columns encoded earlier, so it raises ``ValueError``.
        """
        with self._lock:
            codes = self._codes
            for code, value in enumerate(values):
                existing = codes.get(value)
                if existing is None:
                    if len(codes) != code:
                        raise ValueError(
                            f"interner snapshot conflict: value {value!r} wants "
                            f"code {code} but the next free code is {len(codes)}"
                        )
                    codes[value] = code
                elif existing != code:
                    raise ValueError(
                        f"interner snapshot conflict: value {value!r} is coded "
                        f"{existing} here but {code} in the snapshot"
                    )


#: The default interner shared by every relation in the process.
DEFAULT_INTERNER = ValueInterner()


@dataclass
class ColumnarRelation:
    """A relation as dictionary-encoded columns plus a probability vector.

    ``columns[i]`` holds the ``int64`` codes of attribute ``attributes[i]``
    (all the same length); ``probabilities`` is the float64 ``P`` column.
    Instances are cheap views — operators share column arrays whenever the
    operation allows it, so treat the arrays as immutable.
    """

    name: str
    attributes: tuple[str, ...]
    columns: tuple["np.ndarray", ...]
    probabilities: "np.ndarray"

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return int(len(self.probabilities))

    def column(self, attribute: str) -> "np.ndarray":
        return self.columns[self.attributes.index(attribute)]

    def take(self, indices: "np.ndarray", name: Optional[str] = None) -> "ColumnarRelation":
        """Gather the given row indices into a new relation."""
        return ColumnarRelation(
            name if name is not None else self.name,
            self.attributes,
            tuple(col[indices] for col in self.columns),
            self.probabilities[indices],
        )

    def to_relation(self, interner: Optional[ValueInterner] = None) -> Relation:
        """Decode into the row representation (duplicates ⊕-combine via
        :meth:`Relation.add`, the duplicate policy both representations
        share)."""
        interner = interner if interner is not None else DEFAULT_INTERNER
        decoded = [interner.decode_column(col) for col in self.columns]
        out = Relation(self.name, self.attributes)
        for i, prob in enumerate(self.probabilities):
            out.add(tuple(col[i] for col in decoded), float(min(1.0, max(0.0, prob))))
        return out


def empty(name: str, attributes: Sequence[str]) -> ColumnarRelation:
    """An empty columnar relation with the given schema."""
    attributes = tuple(attributes)
    return ColumnarRelation(
        name,
        attributes,
        tuple(np.empty(0, dtype=np.int64) for _ in attributes),
        np.empty(0, dtype=np.float64),
    )


def from_relation(
    relation: Relation, interner: Optional[ValueInterner] = None
) -> ColumnarRelation:
    """Encode a row relation into columns (the scan-boundary conversion)."""
    interner = interner if interner is not None else DEFAULT_INTERNER
    if not relation.rows:
        return empty(relation.name, relation.attributes)
    value_columns = list(zip(*relation.rows))
    return ColumnarRelation(
        relation.name,
        relation.attributes,
        tuple(interner.encode_column(col) for col in value_columns),
        np.fromiter(relation.rows.values(), dtype=np.float64, count=len(relation.rows)),
    )


# -- grouping machinery -------------------------------------------------------


def _group_ids(columns: Sequence["np.ndarray"], length: int) -> tuple["np.ndarray", int]:
    """Dense group ids (0..k-1) for the row tuples of *columns*.

    Multi-column keys are folded pairwise: the running key is re-densified
    with ``np.unique`` before each combine, so the intermediate products
    stay far below ``int64`` overflow (≤ rows × interner size).
    """
    if length == 0:
        return np.empty(0, dtype=np.int64), 0
    if not columns:
        return np.zeros(length, dtype=np.int64), 1
    key = columns[0]
    for col in columns[1:]:
        _, key = np.unique(key, return_inverse=True)
        key = key * (np.int64(col.max()) + 1 if len(col) else 1) + col
    uniques, inverse = np.unique(key, return_inverse=True)
    return inverse.astype(np.int64, copy=False), int(len(uniques))


def _grouped_oplus(
    ids: "np.ndarray", group_count: int, probabilities: "np.ndarray"
) -> "np.ndarray":
    """Per-group ⊕ = 1 - Π(1-pᵢ), computed in log space.

    ``log1p(-p)`` maps each probability to ``log(1-p)`` (``-inf`` at exactly
    1, which correctly saturates its group at probability 1); ``bincount``
    sums per group; ``-expm1`` maps back without catastrophic cancellation
    for groups whose combined probability is tiny.
    """
    clipped = np.clip(probabilities, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        log_not = np.log1p(-clipped)
    sums = np.bincount(ids, weights=log_not, minlength=group_count)
    return -np.expm1(sums)


# -- operators ----------------------------------------------------------------


def select_mask(relation: ColumnarRelation, mask: "np.ndarray") -> ColumnarRelation:
    """Rows where the boolean *mask* holds; probabilities kept."""
    return relation.take(np.flatnonzero(mask))


def select_eq(
    relation: ColumnarRelation,
    attribute: str,
    value: object,
    interner: Optional[ValueInterner] = None,
) -> ColumnarRelation:
    """Equality selection σ_{attribute = value} on the code column."""
    interner = interner if interner is not None else DEFAULT_INTERNER
    code = interner.code_of(value)
    if code is None:
        return empty(relation.name, relation.attributes)
    return select_mask(relation, relation.column(attribute) == code)


def independent_project(
    relation: ColumnarRelation, attributes: Sequence[str]
) -> ColumnarRelation:
    """γ_{attributes, ⊕}: group on *attributes*, ⊕-combine probabilities.

    The defining operator of safe plans (Sec. 6), here as one grouped
    log-space aggregation — see :func:`_grouped_oplus`.
    """
    attributes = tuple(attributes)
    indices = [relation.attributes.index(a) for a in attributes]
    n = len(relation)
    if n == 0:
        return empty(relation.name, attributes)
    key_columns = [relation.columns[i] for i in indices]
    ids, group_count = _group_ids(key_columns, n)
    probabilities = _grouped_oplus(ids, group_count, relation.probabilities)
    # Any group member supplies the key values: all rows of a group agree
    # on exactly the projected columns.
    representative = np.zeros(group_count, dtype=np.int64)
    representative[ids] = np.arange(n)
    return ColumnarRelation(
        relation.name,
        attributes,
        tuple(col[representative] for col in key_columns),
        probabilities,
    )


def join(
    left: ColumnarRelation, right: ColumnarRelation, name: str = "join"
) -> ColumnarRelation:
    """Natural join ⋈ multiplying probabilities (Sec. 6 operator (1)).

    Shared-attribute codes from both sides are densified together, the
    right side is sorted by key, and ``np.searchsorted`` finds each left
    row's matching range — a sort-based hash join with no per-row Python.
    Output attributes are the left attributes followed by the right-only
    attributes, matching :func:`repro.relational.algebra.join`.
    """
    shared = [a for a in left.attributes if a in right.attributes]
    right_extra = [i for i, a in enumerate(right.attributes) if a not in left.attributes]
    out_attributes = left.attributes + tuple(right.attributes[i] for i in right_extra)
    n_left, n_right = len(left), len(right)
    if n_left == 0 or n_right == 0:
        return empty(name, out_attributes)

    concatenated = [
        np.concatenate([left.column(a), right.column(a)]) for a in shared
    ]
    ids, _ = _group_ids(concatenated, n_left + n_right)
    left_keys, right_keys = ids[:n_left], ids[n_left:]

    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    starts = np.searchsorted(sorted_keys, left_keys, side="left")
    ends = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    left_index = np.repeat(np.arange(n_left), counts)
    # Position within each left row's match range, then into sorted order.
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    right_index = order[np.repeat(starts, counts) + offsets]

    return ColumnarRelation(
        name,
        out_attributes,
        tuple(col[left_index] for col in left.columns)
        + tuple(right.columns[i][right_index] for i in right_extra),
        left.probabilities[left_index] * right.probabilities[right_index],
    )


def cartesian_product(
    left: ColumnarRelation, right: ColumnarRelation, name: str = "product"
) -> ColumnarRelation:
    """Cross product ×, multiplying probabilities; attribute names must differ."""
    if set(left.attributes) & set(right.attributes):
        raise ValueError("cartesian product requires disjoint attribute names")
    return join(left, right, name)


def union(
    left: ColumnarRelation, right: ColumnarRelation, name: str = "union"
) -> ColumnarRelation:
    """Probabilistic union: same-schema rows combined with ⊕.

    The duplicate-row policy matches :meth:`Relation.add` and the row
    representation's union: a row present on both sides gets ``u ⊕ v``.
    """
    if left.attributes != right.attributes:
        raise ValueError("union requires identical schemas")
    stacked = ColumnarRelation(
        name,
        left.attributes,
        tuple(
            np.concatenate([lcol, rcol])
            for lcol, rcol in zip(left.columns, right.columns)
        ),
        np.concatenate([left.probabilities, right.probabilities]),
    )
    return independent_project(stacked, left.attributes)


def boolean_oplus(relation: ColumnarRelation) -> float:
    """⊕ over all rows: the probability output of a Boolean plan root."""
    if len(relation) == 0:
        return 0.0
    clipped = np.clip(relation.probabilities, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        log_not = np.log1p(-clipped)
    return float(-np.expm1(log_not.sum()))


def columnar_from_rows(
    name: str,
    attributes: Iterable[str],
    rows: Iterable[tuple],
    probabilities: Iterable[float],
) -> ColumnarRelation:
    """Build directly from parallel row/probability iterables (test helper)."""
    relation = Relation(name, tuple(attributes))
    for values, prob in zip(rows, probabilities):
        relation.add(values, prob)
    return from_relation(relation)
