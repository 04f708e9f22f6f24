"""Most-probable-explanation (MPE) over compiled lineage circuits.

On a decision-DNNF, replacing the (+, ×) semiring of weighted model
counting with (max, ×) computes the *most probable world satisfying the
query* in one bottom-up pass — the classic MPE/MAP trick of knowledge
compilation.

One subtlety (smoothing): when a decision node's two branches mention
different variable sets, comparing their raw products is wrong — a branch
that never tests X implicitly gets X's *mode* probability, while a branch
that fixes X pays its chosen value. The maximization below normalizes every
comparison to the union scope by multiplying in the mode probabilities of
the missing variables, which is exactly what circuit smoothing would do.

Every pass is a loop over the circuit's nodes in id order, children first
(:meth:`~repro.kc.circuits.Circuit.reachable`): the (max, ×) pass keeps
each node's best value and branch, and the assignment is decoded once,
top-down from the root. :func:`top_k_models` runs one such loop per
restricted-satisfiability test.

Typical use: "what is the single most likely database state in which the
risk query is true?" — the explanation companion to
:mod:`repro.kc.differentiate`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional

from .circuits import AndNode, Circuit, Decision, FALSE_LEAF, OrNode, TRUE_LEAF


@dataclass(frozen=True)
class Explanation:
    """The most probable satisfying world and its probability."""

    assignment: dict[int, bool]
    probability: float


def most_probable_model(
    circuit: Circuit,
    probabilities: Mapping[int, float],
    root: Optional[int] = None,
) -> Explanation:
    """MPE: argmax over worlds W ⊨ F of P(W), via a smoothed (max, ×) pass.

    Returns a *total* assignment over ``probabilities``' variables; raises
    ValueError when the circuit is unsatisfiable.
    """
    start = circuit.root if root is None else root

    def mode_product(variables: frozenset[int]) -> float:
        product = 1.0
        for var in variables:
            p = probabilities[var]
            product *= max(p, 1.0 - p)
        return product

    # best[n]: max probability over n's scope (None: unsatisfiable);
    # branch[n]: the child a decision or ∨ node takes to reach it.
    best: dict[int, Optional[float]] = {TRUE_LEAF: 1.0, FALSE_LEAF: None}
    branch: dict[int, int] = {}
    below: dict[int, frozenset[int]] = {}
    for node_id, below in circuit.scopes(start):
        node = circuit.nodes[node_id]
        result: Optional[float] = None
        if isinstance(node, Decision):
            p = probabilities[node.var]
            node_scope = below[node_id] - {node.var}
            lo, hi = best[node.lo], best[node.hi]
            if lo is not None:
                result = (1.0 - p) * lo * mode_product(node_scope - below[node.lo])
                branch[node_id] = node.lo
            if hi is not None:
                candidate = p * hi * mode_product(node_scope - below[node.hi])
                if result is None or candidate > result:
                    result, branch[node_id] = candidate, node.hi
        elif isinstance(node, AndNode):
            result = 1.0
            for child in node.children:
                sub = best[child]
                if sub is None:
                    result = None
                    break
                result *= sub
        elif isinstance(node, OrNode):
            for child in node.children:
                sub = best[child]
                if sub is None:
                    continue
                candidate = sub * mode_product(below[node_id] - below[child])
                if result is None or candidate > result:
                    result, branch[node_id] = candidate, child
        else:
            p = probabilities[node.var]
            result = p if node.positive else 1.0 - p
        best[node_id] = result

    probability = best[start]
    if probability is None:
        raise ValueError("circuit is unsatisfiable; no explanation exists")
    # Decode once, top-down along the chosen branches.
    assignment: dict[int, bool] = {}
    chosen = {start}
    for node_id in reversed(circuit.reachable(start)):
        if node_id not in chosen:
            continue
        node = circuit.nodes[node_id]
        if isinstance(node, Decision):
            assignment[node.var] = branch[node_id] == node.hi
            chosen.add(branch[node_id])
        elif isinstance(node, OrNode):
            chosen.add(branch[node_id])
        elif isinstance(node, AndNode):
            chosen.update(node.children)
        else:
            assignment[node.var] = node.positive
    root_scope = below.get(start, frozenset())
    for var, p in probabilities.items():
        if var not in assignment:
            choice = p >= 0.5
            assignment[var] = choice
            # variables inside the root scope that ended up unset were
            # mode-filled during the (max, ×) pass: their factor is already
            # part of `probability`; only out-of-scope variables still owe
            # their mode factor.
            if var not in root_scope:
                probability *= p if choice else 1.0 - p
    return Explanation(assignment, probability)


def top_k_models(
    circuit: Circuit,
    probabilities: Mapping[int, float],
    k: int,
    root: Optional[int] = None,
) -> list[Explanation]:
    """The *k* most probable satisfying worlds, best first (exact).

    Best-first branch-and-bound over total assignments: variables are
    fixed in order of decreasing decisiveness (|p − ½|), and a partial
    assignment's priority is the product of its chosen factors times the
    mode product of the unassigned rest — an admissible bound, since no
    completion can beat the per-variable mode. A partial assignment whose
    restricted circuit is already unsatisfiable is pruned. When a *total*
    assignment pops, its priority equals its exact probability and every
    queued state bounds its own completions from above, so emissions come
    out in non-increasing probability order — the A* argument for exact
    k-best enumeration.

    Zero-probability worlds are never emitted (a branch whose bound hits
    0.0 cannot contribute), so fewer than *k* explanations come back when
    the circuit has fewer positive-probability models. ``k < 1`` raises.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    start = circuit.root if root is None else root
    if start == FALSE_LEAF:
        return []
    order = sorted(probabilities, key=lambda v: -abs(probabilities[v] - 0.5))
    ids = circuit.reachable(start)

    # Suffix mode products: bound contribution of variables order[i:].
    suffix = [1.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        p = probabilities[order[i]]
        suffix[i] = suffix[i + 1] * max(p, 1.0 - p)

    # Heap of (-bound, -depth, tiebreak, chosen-product, assignment).
    # Among equal bounds the deepest state pops first, so ties (uniform
    # priors) search depth-first instead of expanding every level; the
    # tiebreak keeps the heap total-ordered without comparing dicts, and
    # carrying the chosen-product avoids dividing it back out of the bound
    # (no float drift against exact world probabilities).
    counter = 0
    heap: list[tuple[float, int, int, float, dict[int, bool]]] = []
    empty: dict[int, bool] = {}
    if _satisfiable(circuit, start, ids, empty):
        heap.append((-suffix[0], 0, counter, 1.0, empty))
    out: list[Explanation] = []
    while heap and len(out) < k:
        _, negdepth, _, chosen, assignment = heapq.heappop(heap)
        depth = -negdepth
        if depth == len(order):
            out.append(Explanation(dict(assignment), chosen))
            continue
        var = order[depth]
        p = probabilities[var]
        for value, factor in ((True, p), (False, 1.0 - p)):
            picked = chosen * factor
            bound = picked * suffix[depth + 1]
            if bound <= 0.0:
                continue
            child = dict(assignment)
            child[var] = value
            if not _satisfiable(circuit, start, ids, child):
                continue
            counter += 1
            heapq.heappush(heap, (-bound, -depth - 1, counter, picked, child))
    return out


def _satisfiable(
    circuit: Circuit, root: int, ids: list[int], assignment: Mapping[int, bool]
) -> bool:
    """SAT of the circuit under a partial assignment: one loop over *ids*,
    the nodes reachable from *root* children first."""
    sat = {FALSE_LEAF: False, TRUE_LEAF: True}
    for node_id in ids:
        node = circuit.nodes[node_id]
        if isinstance(node, Decision):
            fixed = assignment.get(node.var)
            if fixed is None:
                sat[node_id] = sat[node.lo] or sat[node.hi]
            else:
                sat[node_id] = sat[node.hi] if fixed else sat[node.lo]
        elif isinstance(node, AndNode):
            sat[node_id] = all(sat[child] for child in node.children)
        elif isinstance(node, OrNode):
            sat[node_id] = any(sat[child] for child in node.children)
        else:
            fixed = assignment.get(node.var)
            sat[node_id] = fixed is None or fixed == node.positive
    return sat[root]
