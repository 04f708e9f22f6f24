"""Variable orders for OBDD compilation of query lineages.

Theorem 7.1(i) (following Olteanu–Huang [61] and Jha–Suciu [46]): the lineage
of a *hierarchical* self-join-free CQ admits a linear-size OBDD — under the
order that walks the domain block-by-block along the query's hierarchy. This
module derives that order from the query, plus a deliberately bad
"predicate-major" order used as the ablation baseline (reading all R-tuples
before any S-tuple forces the diagram to remember exponentially much state).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..booleans.expr import BExpr, evaluate
from ..lineage.build import Lineage
from ..logic.cq import ConjunctiveQuery
from ..logic.terms import Var


def hierarchy_variable_ranking(query: ConjunctiveQuery) -> list[Var]:
    """Query variables sorted ancestors-first along the hierarchy.

    In a hierarchical query ``at(x) ⊇ at(y)`` means *x* sits above *y*;
    sorting by decreasing ``|at(v)|`` therefore lists every ancestor before
    its descendants (ties broken by name for determinism).
    """
    return sorted(query.variables, key=lambda v: (-len(query.at(v)), v.name))


def hierarchical_order(query: ConjunctiveQuery, lineage: Lineage) -> list[int]:
    """The linear-size OBDD order for a hierarchical self-join-free CQ.

    Lineage variables (facts) are sorted lexicographically by the domain
    values they assign to the ranked query variables; facts whose atom does
    not mention a ranked variable sort *before* any concrete value at that
    position. The result groups facts into nested blocks: all facts for
    root value ``a`` together, inside them all facts for the next-level
    value ``b``, and so on — exactly the traversal of [61].
    """
    if query.has_self_joins():
        raise ValueError("hierarchical order requires a self-join-free query")
    if not query.is_hierarchical():
        raise ValueError("query is not hierarchical")
    ranking = hierarchy_variable_ranking(query)
    atom_of_predicate = {atom.predicate: atom for atom in query.atoms}

    def sort_key(var_index: int) -> tuple:
        predicate, values = lineage.fact(var_index)
        atom = atom_of_predicate.get(predicate)
        key = []
        for qvar in ranking:
            if atom is not None and qvar in atom.free_variables():
                position = next(
                    i for i, t in enumerate(atom.args) if t == qvar
                )
                key.append((1, repr(values[position])))
            else:
                key.append((0, ""))
        return tuple(key)

    return sorted(range(lineage.variable_count), key=sort_key)


def predicate_major_order(lineage: Lineage) -> list[int]:
    """The adversarial ablation order: group facts by relation name.

    For ``R(x), S(x,y)`` this reads every R-tuple before any S-tuple, which
    forces the OBDD to remember the entire subset of true R-tuples —
    exponential width even though the query is hierarchical.
    """
    return sorted(
        range(lineage.variable_count),
        key=lambda i: (lineage.fact(i)[0], repr(lineage.fact(i)[1])),
    )


def order_from_facts(lineage: Lineage, key: Callable) -> list[int]:
    """Order lineage variables by an arbitrary fact key function."""
    return sorted(range(lineage.variable_count), key=lambda i: key(lineage.fact(i)))


def exhaustive_minimum_size(expr: BExpr, variables: Sequence[int]) -> int:
    """Minimum OBDD size over *all* orders of *variables*, computed exactly.

    Certifies the "every OBDD is large" direction of Theorem 7.1(i)(b) on
    small instances. Rather than compiling all n! orders, it runs the exact
    subset dynamic program of Friedman and Supowit: under any order whose
    first variables form the set ``T``, the reduced OBDD has one node
    labelled by the next variable ``x`` per distinct cofactor of *expr* over
    the assignments to ``T`` that still depends on ``x`` — a count fixed by
    ``T`` and ``x``, not by the order inside ``T``. Hence::

        best[∅] = 0
        best[S] = min over x ∈ S of  best[S ∖ x] + #{cofactors over S ∖ x that depend on x}

    and ``best[variables]`` equals the internal-node count
    ``manager.circuit.size(root)`` reports for the best order. Cofactors are
    truth tables held as 2ⁿ-bit integers; the work is still exponential in
    n, but 8 variables take milliseconds where the n! sweep took seconds.
    """
    variables = list(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("variable list contains duplicates")
    missing = expr.variables() - set(variables)
    if missing:
        raise ValueError(f"expression variables {sorted(missing)} are not in the order")
    n = len(variables)
    full = (1 << (1 << n)) - 1
    # masks[j]: the truth table of variable j (bit m is set iff bit j of m is).
    masks = [
        sum(1 << m for m in range(1 << n) if m >> j & 1) for j in range(n)
    ]
    table = sum(
        1 << m
        for m in range(1 << n)
        if evaluate(expr, {v: bool(m >> j & 1) for j, v in enumerate(variables)})
    )

    def cofactor(g: int, j: int, value: bool) -> int:
        shift = 1 << j
        if value:
            part = g & masks[j]
            return part | (part >> shift)
        part = g & (full ^ masks[j])
        return part | (part << shift)

    cofactors: dict[int, set[int]] = {0: {table}}
    best = [0] * (1 << n)
    for subset in range(1, 1 << n):
        low = (subset & -subset).bit_length() - 1
        cofactors[subset] = {
            cofactor(g, low, value)
            for g in cofactors[subset ^ (1 << low)]
            for value in (False, True)
        }
        candidates = []
        for j in range(n):
            if subset >> j & 1:
                rest = subset ^ (1 << j)
                nodes = sum(
                    cofactor(g, j, False) != cofactor(g, j, True) for g in cofactors[rest]
                )
                candidates.append(best[rest] + nodes)
        best[subset] = min(candidates)
    return best[-1]
