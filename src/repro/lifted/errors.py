"""Errors raised by the lifted inference engine."""

from __future__ import annotations


class NonLiftableError(Exception):
    """The lifted rules do not apply to (a residual subquery of) the query.

    By the dichotomy theorem (Thm. 4.1) together with the completeness of
    the rules (Thm. 5.1), for queries in the paper's language this means the
    query is #P-hard — the caller should fall back to grounded inference.
    The blocking subquery is attached for diagnostics; ``cache_hit``: the
    verdict came from :func:`repro.lifted.derive.derive`'s shape cache.
    """

    def __init__(self, message: str, subquery: object = None, cache_hit: bool = False) -> None:
        super().__init__(message)
        self.subquery = subquery
        self.cache_hit = cache_hit


class UnsupportedQueryError(Exception):
    """The sentence falls outside the engine's language (unate ∀*/∃*)."""
