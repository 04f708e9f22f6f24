"""Lineage: grounding queries over TIDs into Boolean formulas."""

from .build import (
    Lineage,
    VariablePool,
    answer_lineages,
    lineage_of,
    lineage_of_cq,
    lineage_of_sentence,
    lineage_of_ucq,
)

__all__ = [
    "Lineage",
    "VariablePool",
    "answer_lineages",
    "lineage_of",
    "lineage_of_cq",
    "lineage_of_sentence",
    "lineage_of_ucq",
]
