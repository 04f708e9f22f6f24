"""Relational substrate: in-memory relations and (probabilistic) algebra.

Two representations share one semantics: the columnar one
(:mod:`~repro.relational.columnar`, dictionary-encoded numpy columns with
vectorized operators and log-space ⊕-aggregation), on which safe plans run,
and the row one (:mod:`~repro.relational.relation` /
:mod:`~repro.relational.algebra`, dict-of-tuples, tuple-at-a-time
operators), which stores the database and is the reference the columnar
operators are tested against.
"""

from .columnar import ColumnarRelation, ValueInterner, from_relation
from .relation import Relation, relation_from_rows
from .algebra import (
    boolean_oplus,
    cartesian_product,
    difference,
    independent_project,
    join,
    oplus,
    project,
    relations_join_all,
    rename_attributes,
    select,
    select_eq,
    union,
)

__all__ = [
    "ColumnarRelation",
    "ValueInterner",
    "from_relation",
    "Relation",
    "relation_from_rows",
    "boolean_oplus",
    "cartesian_product",
    "difference",
    "independent_project",
    "join",
    "oplus",
    "project",
    "relations_join_all",
    "rename_attributes",
    "select",
    "select_eq",
    "union",
]
