"""In-memory relations with an optional probability column.

The paper represents a TID inside a standard relational database by giving
every relation one extra attribute ``P`` holding the tuple's marginal
probability (Sec. 2). :class:`Relation` follows that convention: rows map a
value tuple to its probability; a deterministic relation simply has every
probability equal to 1.

Every relation also keeps an order-independent content digest — the sum
mod 2¹²⁸ of one 128-bit blake2b hash per ``(values, probability)`` row —
built lazily on the first :meth:`Relation.digest` call and kept current by
:meth:`Relation.add` / :meth:`Relation.replace` in O(1) per write (subtract
the old row's hash, add the new one). Caches key on it; writing
``relation.rows`` directly bypasses it (``REPRO_SANITIZE=1`` catches that,
see :meth:`repro.core.tid.TupleIndependentDatabase.fingerprint`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional

_DIGEST_MASK = (1 << 128) - 1


def _row_hash(values: tuple, prob: float) -> int:
    """One row's 128-bit contribution to its relation's digest."""
    raw = hashlib.blake2b(repr((values, prob)).encode(), digest_size=16).digest()
    return int.from_bytes(raw, "little")


@dataclass
class Relation:
    """A named relation: attribute list plus ``{value-tuple: probability}``."""

    name: str
    attributes: tuple[str, ...]
    rows: dict[tuple, float] = field(default_factory=dict)
    _digest: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _version: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.attributes, tuple):
            self.attributes = tuple(self.attributes)
        for values, prob in self.rows.items():
            self._check_row(values, prob)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def version(self) -> int:
        """A counter bumped by every :meth:`add` / :meth:`replace`."""
        return self._version

    def digest(self) -> int:
        """The order-independent content digest of the rows (see module doc).

        The first call hashes every row; afterwards writes keep it current.
        """
        if self._digest is None:
            self._digest = self.full_digest()
        return self._digest

    def full_digest(self) -> int:
        """The digest recomputed from scratch, ignoring the maintained one."""
        return sum(_row_hash(values, p) for values, p in self.rows.items()) & _DIGEST_MASK

    def _write(self, values: tuple, old: Optional[float], prob: float) -> None:
        if self._digest is not None:
            delta = _row_hash(values, prob) - (0 if old is None else _row_hash(values, old))
            self._digest = (self._digest + delta) & _DIGEST_MASK
        self.rows[values] = prob
        self._version += 1

    def _check_row(self, values: tuple, prob: float) -> None:
        if len(values) != self.arity:
            raise ValueError(
                f"{self.name}: row {values!r} has arity {len(values)}, "
                f"expected {self.arity}"
            )
        if not -1e-9 <= prob <= 1 + 1e-9:
            raise ValueError(f"{self.name}: probability {prob} out of [0, 1]")

    def add(self, values: Iterable, prob: float = 1.0) -> None:
        """Insert a row; a duplicate row ⊕-combines with the existing one.

        This is the single duplicate-row policy of the engine, shared by
        the row and columnar representations: adding the same value tuple twice
        yields ``u ⊕ v = 1 - (1-u)(1-v)``, treating the two insertions as
        independent evidence for the tuple (the Sec. 6 aggregate). To
        overwrite a row's probability instead, use :meth:`replace`.
        """
        values = tuple(values)
        self._check_row(values, prob)
        existing = self.rows.get(values)
        if existing is None:
            self._write(values, None, float(prob))
        else:
            self._write(values, existing, 1.0 - (1.0 - existing) * (1.0 - float(prob)))

    def replace(self, values: Iterable, prob: float) -> None:
        """Set a row's probability outright (insert when absent)."""
        values = tuple(values)
        self._check_row(values, prob)
        self._write(values, self.rows.get(values), float(prob))

    def probability(self, values: Iterable) -> float:
        """Marginal probability of the tuple; 0.0 when absent."""
        return self.rows.get(tuple(values), 0.0)

    def __contains__(self, values: object) -> bool:
        return tuple(values) in self.rows  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def items(self) -> Iterator[tuple[tuple, float]]:
        """Iterate over (values, probability) pairs."""
        return iter(self.rows.items())

    def active_domain(self) -> frozenset:
        """All values occurring in any row."""
        return frozenset(v for values in self.rows for v in values)

    def copy(self) -> "Relation":
        clone = Relation(self.name, self.attributes, dict(self.rows))
        clone._digest = self._digest
        return clone

    def map_probabilities(self, fn: Callable[[float], float]) -> "Relation":
        """A copy with every probability transformed by *fn*."""
        return Relation(
            self.name,
            self.attributes,
            {values: fn(p) for values, p in self.rows.items()},
        )

    def is_deterministic(self, tolerance: float = 1e-12) -> bool:
        """True when every tuple has probability 1."""
        return all(abs(p - 1.0) <= tolerance for p in self.rows.values())

    def rename(self, name: str) -> "Relation":
        return Relation(name, self.attributes, dict(self.rows))

    def __str__(self) -> str:
        header = f"{self.name}({', '.join(self.attributes)})"
        lines = [header] + [
            f"  {values} : {prob:.6g}" for values, prob in sorted(self.rows.items(), key=lambda kv: repr(kv[0]))
        ]
        return "\n".join(lines)


def relation_from_rows(
    name: str,
    attributes: Iterable[str],
    rows: Iterable[tuple] | Mapping[tuple, float],
    default_probability: float = 1.0,
) -> Relation:
    """Build a relation from row tuples or a ``{row: probability}`` mapping."""
    relation = Relation(name, tuple(attributes))
    if isinstance(rows, Mapping):
        for values, prob in rows.items():
            relation.add(values, prob)
    else:
        for values in rows:
            relation.add(values, default_probability)
    return relation
