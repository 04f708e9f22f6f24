"""Relational algebra operators, deterministic and probabilistic.

The deterministic operators implement standard bag-free (set) semantics and
ignore probabilities (each output row gets probability 1). The probabilistic
variants are the two extensional operators of Sec. 6:

* :func:`join` — natural join that *multiplies* the probabilities of the
  joined rows;
* :func:`independent_project` — group-by/aggregate γ whose aggregate is
  ``u ⊕ v = 1 - (1-u)(1-v)`` (independent-or over the grouped rows).

Every lifted inference rule corresponds to one of these operators, which is
how extensional plans compute probabilities inside ordinary query processing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .relation import Relation


def oplus(u: float, v: float) -> float:
    """The independent-or aggregate of Sec. 6, ``1 - (1-u)(1-v)``, as
    ``u + v - u·v``: the product form rounds ``1 - u`` to 1.0 for u < 2⁻⁵³."""
    return u + v - u * v


def select(relation: Relation, predicate: Callable[[dict], bool]) -> Relation:
    """Rows whose attribute dict satisfies *predicate*; probabilities kept."""
    out = Relation(relation.name, relation.attributes)
    for values, prob in relation.items():
        row = dict(zip(relation.attributes, values))
        if predicate(row):
            out.add(values, prob)
    return out


def select_eq(relation: Relation, attribute: str, value) -> Relation:
    """Equality selection σ_{attribute = value}."""
    index = relation.attributes.index(attribute)
    out = Relation(relation.name, relation.attributes)
    for values, prob in relation.items():
        if values[index] == value:
            out.add(values, prob)
    return out


def project(relation: Relation, attributes: Sequence[str]) -> Relation:
    """Deterministic (set-semantics) projection; output rows get P = 1."""
    indices = [relation.attributes.index(a) for a in attributes]
    out = Relation(relation.name, tuple(attributes))
    for values in relation:
        out.add(tuple(values[i] for i in indices), 1.0)
    return out


def independent_project(relation: Relation, attributes: Sequence[str]) -> Relation:
    """γ_{attributes, ⊕}: group on *attributes*, ⊕-combine probabilities.

    This is the correct probabilistic duplicate elimination when the grouped
    rows are independent events — the defining operator of safe plans.
    """
    indices = [relation.attributes.index(a) for a in attributes]
    grouped: dict[tuple, float] = {}
    for values, prob in relation.items():
        key = tuple(values[i] for i in indices)
        grouped[key] = oplus(grouped.get(key, 0.0), prob)
    return Relation(relation.name, tuple(attributes), grouped)


def join(left: Relation, right: Relation, name: str = "join") -> Relation:
    """Natural join ⋈ multiplying probabilities (Sec. 6 operator (1)).

    Output attributes are the left attributes followed by the right-only
    attributes; rows match on all shared attribute names.
    """
    shared = [a for a in left.attributes if a in right.attributes]
    left_idx = [left.attributes.index(a) for a in shared]
    right_idx = [right.attributes.index(a) for a in shared]
    right_extra = [
        i for i, a in enumerate(right.attributes) if a not in left.attributes
    ]
    out_attributes = left.attributes + tuple(right.attributes[i] for i in right_extra)

    # Hash join on the shared attributes.
    buckets: dict[tuple, list[tuple[tuple, float]]] = {}
    for rvalues, rprob in right.items():
        key = tuple(rvalues[i] for i in right_idx)
        buckets.setdefault(key, []).append((rvalues, rprob))

    out = Relation(name, out_attributes)
    for lvalues, lprob in left.items():
        key = tuple(lvalues[i] for i in left_idx)
        for rvalues, rprob in buckets.get(key, ()):
            combined = lvalues + tuple(rvalues[i] for i in right_extra)
            out.add(combined, lprob * rprob)
    return out


def union(left: Relation, right: Relation, name: str = "union") -> Relation:
    """Probabilistic union: same-schema rows combined with ⊕.

    Built entirely through :meth:`Relation.add`, whose documented
    duplicate-row policy *is* the ⊕-combine — so union inherits the row
    validation (arity, probability range) instead of poking ``rows``
    directly, and both representations share one definition of what a duplicate
    row means.
    """
    if left.attributes != right.attributes:
        raise ValueError("union requires identical schemas")
    out = Relation(name, left.attributes)
    for values, prob in left.items():
        out.add(values, prob)
    for values, prob in right.items():
        out.add(values, prob)
    return out


def difference(left: Relation, right: Relation, name: str = "difference") -> Relation:
    """Deterministic set difference (probabilities from the left input)."""
    if left.attributes != right.attributes:
        raise ValueError("difference requires identical schemas")
    out = Relation(name, left.attributes)
    for values, prob in left.items():
        if values not in right.rows:
            out.add(values, prob)
    return out


def rename_attributes(relation: Relation, attributes: Sequence[str]) -> Relation:
    """A copy with a new attribute list (arity must match)."""
    attributes = tuple(attributes)
    if len(attributes) != relation.arity:
        raise ValueError("attribute count mismatch")
    return Relation(relation.name, attributes, dict(relation.rows))


def cartesian_product(left: Relation, right: Relation, name: str = "product") -> Relation:
    """Cross product ×, multiplying probabilities; attribute names must differ."""
    if set(left.attributes) & set(right.attributes):
        raise ValueError("cartesian product requires disjoint attribute names")
    return join(left, right, name)


def aggregate_all(relation: Relation, combine: Callable[[float, float], float], initial: float) -> float:
    """Fold all row probabilities into a single number (Boolean plans' root)."""
    result = initial
    for _, prob in relation.items():
        result = combine(result, prob)
    return result


def boolean_oplus(relation: Relation) -> float:
    """⊕ over all rows: the probability output of a Boolean plan root."""
    return aggregate_all(relation, oplus, 0.0)


def relations_join_all(relations: Iterable[Relation], name: str = "join") -> Relation:
    """Left-deep natural join of several relations."""
    iterator = iter(relations)
    try:
        result = next(iterator).copy()
    except StopIteration:
        raise ValueError("need at least one relation") from None
    for relation in iterator:
        result = join(result, relation, name)
    return result
