"""Process-shareable columnar storage: shards in ``shared_memory``.

The multi-process server (:mod:`repro.server.pool`) needs every worker to
see the same database without N copies and without re-parsing anything on
the worker side. This module provides that transport for the columnar
layout of :mod:`repro.relational.columnar`:

* :func:`publish` encodes each relation of a
  :class:`~repro.core.tid.TupleIndependentDatabase` once (int64 code
  columns + one float64 probability vector) and lays the arrays out in
  one ``multiprocessing.shared_memory`` segment per relation;
* the result is a :class:`DatabaseHandle` — a small picklable record of
  segment names, dtypes, shapes and the database fingerprint, plus the
  :class:`~repro.relational.columnar.ValueInterner` snapshot (pickled into
  its own segment) so workers decode codes to the very same values;
* :func:`attach` maps those segments in another process as **read-only,
  zero-copy** numpy views, loads the interner snapshot, and can rebuild a
  row-level TID whose :meth:`fingerprint` must equal the publisher's —
  the byte-identity guarantee the serving layer advertises.

Lifecycle: the publisher owns the segments (``DatabaseShards.unlink()``
releases them at server shutdown); workers merely ``close()`` their
attachments. Attached arrays are marked non-writable, so a worker that
tries to mutate base data fails loudly instead of corrupting its
siblings.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.tid import TupleIndependentDatabase
from .columnar import (
    DEFAULT_INTERNER,
    ColumnarRelation,
    ValueInterner,
    from_relation,
)

__all__ = [
    "AttachedShards",
    "DatabaseHandle",
    "DatabaseShards",
    "ShardHandle",
    "attach",
    "publish",
]

_CODE_DTYPE = "int64"
_PROB_DTYPE = "float64"
_ITEMSIZE = 8  # both dtypes above


@dataclass(frozen=True)
class ShardHandle:
    """One relation's shared-memory placement (picklable).

    The segment holds ``arity`` int64 code columns followed by the
    float64 probability vector, each ``rows`` long and contiguous.
    ``segment`` is None for an empty relation (schema only, no bytes).
    """

    relation: str
    attributes: Tuple[str, ...]
    segment: Optional[str]
    code_dtype: str
    prob_dtype: str
    rows: int
    db_fingerprint: str


@dataclass(frozen=True)
class DatabaseHandle:
    """Everything a worker needs to attach: shards + dictionary + identity."""

    fingerprint: str
    shards: Tuple[ShardHandle, ...]
    interner_segment: str
    interner_nbytes: int
    domain: Optional[frozenset]


class DatabaseShards:
    """Publisher side: encodes a TID into owned shared-memory segments.

    The instance owns every segment it creates; :meth:`unlink` releases
    them (call it exactly once, from the publishing process, after all
    workers are gone). Usable as a context manager.
    """

    def __init__(
        self,
        db: TupleIndependentDatabase,
        interner: Optional[ValueInterner] = None,
    ) -> None:
        interner = interner if interner is not None else DEFAULT_INTERNER
        self._segments: List[shared_memory.SharedMemory] = []
        fingerprint = db.fingerprint()
        shards: List[ShardHandle] = []
        try:
            for name in sorted(db.relations):
                relation = db.relations[name]
                encoded = from_relation(relation, interner)
                rows = len(encoded)
                if rows == 0:
                    shards.append(
                        ShardHandle(
                            name, relation.attributes, None,
                            _CODE_DTYPE, _PROB_DTYPE, 0, fingerprint,
                        )
                    )
                    continue
                arity = encoded.arity
                segment = shared_memory.SharedMemory(
                    create=True, size=(arity + 1) * rows * _ITEMSIZE
                )
                self._segments.append(segment)
                for i, column in enumerate(encoded.columns):
                    view = np.ndarray(
                        (rows,), dtype=np.int64,
                        buffer=segment.buf, offset=i * rows * _ITEMSIZE,
                    )
                    view[:] = column
                probabilities = np.ndarray(
                    (rows,), dtype=np.float64,
                    buffer=segment.buf, offset=arity * rows * _ITEMSIZE,
                )
                probabilities[:] = encoded.probabilities
                shards.append(
                    ShardHandle(
                        name, relation.attributes, segment.name,
                        _CODE_DTYPE, _PROB_DTYPE, rows, fingerprint,
                    )
                )
            # Snapshot *after* encoding: every code the columns reference
            # exists in the snapshot.
            blob = pickle.dumps(
                interner.snapshot(), protocol=pickle.HIGHEST_PROTOCOL
            )
            dictionary = shared_memory.SharedMemory(
                create=True, size=max(1, len(blob))
            )
            self._segments.append(dictionary)
            dictionary.buf[: len(blob)] = blob
        except BaseException:
            self.unlink()
            raise
        self.handle = DatabaseHandle(
            fingerprint, tuple(shards), dictionary.name, len(blob), db.explicit_domain
        )

    def close(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def unlink(self) -> None:
        """Release the segments (publisher only; call once, at shutdown)."""
        for segment in self._segments:
            try:
                segment.close()
            except OSError:  # pragma: no cover - already closed
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

    def __enter__(self) -> "DatabaseShards":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unlink()


def publish(
    db: TupleIndependentDatabase, interner: Optional[ValueInterner] = None
) -> DatabaseShards:
    """Encode *db* into shared memory; returns the owning publisher."""
    return DatabaseShards(db, interner)


class AttachedShards:
    """Worker side: read-only, zero-copy views over a publisher's shards.

    ``columnar`` maps each relation name to a
    :class:`~repro.relational.columnar.ColumnarRelation` whose arrays are
    non-writable views straight into shared memory; the publisher's
    interner snapshot is loaded into *interner* (default: this process's
    ``DEFAULT_INTERNER``) so codes decode to identical values.
    """

    def __init__(
        self, handle: DatabaseHandle, interner: Optional[ValueInterner] = None
    ) -> None:
        self.handle = handle
        self.interner = interner if interner is not None else DEFAULT_INTERNER
        self._segments: List[shared_memory.SharedMemory] = []
        self.columnar: Dict[str, ColumnarRelation] = {}
        try:
            # NB: attaching registers the name with the (shared) resource
            # tracker again; that is a set-semantics no-op, and ownership
            # stays with the publisher, whose unlink() deregisters it.
            dictionary = shared_memory.SharedMemory(name=handle.interner_segment)
            self._segments.append(dictionary)
            snapshot = pickle.loads(bytes(dictionary.buf[: handle.interner_nbytes]))
            self.interner.load_snapshot(snapshot)
            for shard in handle.shards:
                rows, arity = shard.rows, len(shard.attributes)
                if shard.segment is None:
                    self.columnar[shard.relation] = ColumnarRelation(
                        shard.relation,
                        shard.attributes,
                        tuple(
                            _readonly(np.empty(0, dtype=shard.code_dtype))
                            for _ in shard.attributes
                        ),
                        _readonly(np.empty(0, dtype=shard.prob_dtype)),
                    )
                    continue
                segment = shared_memory.SharedMemory(name=shard.segment)
                self._segments.append(segment)
                columns = tuple(
                    _readonly(
                        np.ndarray(
                            (rows,), dtype=shard.code_dtype,
                            buffer=segment.buf, offset=i * rows * _ITEMSIZE,
                        )
                    )
                    for i in range(arity)
                )
                probabilities = _readonly(
                    np.ndarray(
                        (rows,), dtype=shard.prob_dtype,
                        buffer=segment.buf, offset=arity * rows * _ITEMSIZE,
                    )
                )
                self.columnar[shard.relation] = ColumnarRelation(
                    shard.relation, shard.attributes, columns, probabilities
                )
        except BaseException:
            self.close()
            raise

    def to_tid(self) -> TupleIndependentDatabase:
        """Decode the shards back into a row-level TID.

        The result's :meth:`fingerprint` is verified against the
        publisher's — a mismatch means the segments no longer describe
        the database the handle was minted for, and raises rather than
        silently serving stale data.
        """
        db = TupleIndependentDatabase()
        for shard in self.handle.shards:
            relation = db.add_relation(shard.relation, shard.attributes)
            encoded = self.columnar[shard.relation]
            decoded = [self.interner.decode_column(col) for col in encoded.columns]
            for i in range(len(encoded)):
                relation.replace(
                    tuple(col[i] for col in decoded),
                    float(encoded.probabilities[i]),
                )
        if self.handle.domain is not None:
            db.explicit_domain = frozenset(self.handle.domain)
        db.touch()
        actual = db.fingerprint()
        if actual != self.handle.fingerprint:
            raise ValueError(
                "attached shards decode to a database with fingerprint "
                f"{actual[:12]}… but the handle was published for "
                f"{self.handle.fingerprint[:12]}… — stale or corrupted segments"
            )
        return db

    def close(self) -> None:
        """Drop this process's mappings (the publisher still owns the bytes)."""
        self.columnar = {}
        for segment in self._segments:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - exported views
                pass
        self._segments = []

    def __enter__(self) -> "AttachedShards":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _readonly(array: "np.ndarray") -> "np.ndarray":
    array.flags.writeable = False
    return array


def attach(
    handle: DatabaseHandle, interner: Optional[ValueInterner] = None
) -> AttachedShards:
    """Map a publisher's shards into this process, read-only."""
    return AttachedShards(handle, interner)
