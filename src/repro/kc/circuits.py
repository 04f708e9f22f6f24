"""Knowledge-compilation circuits: FBDD, decision-DNNF and d-DNNF nodes.

The node types follow Sec. 7 of the paper:

* a *decision node* tests a Boolean variable and branches (the building block
  of FBDDs and OBDDs);
* an *independent-∧* node conjoins children over disjoint variable sets
  (decision-DNNF = FBDD + independent-∧);
* a *disjoint-∨* node disjoins children that are mutually exclusive events
  (d-DNNF); negation leaves complete the d-DNNF language.

Circuits are DAGs stored in a :class:`Circuit` arena; node ids are ints.
Every constructor gives a new node a larger id than its children, so the
arena is a topological order: :meth:`Circuit.reachable` lists a root's
nodes children first, and every pass — weighted model counting,
evaluation, the validity checks, and the differentiation, MPE and OBDD
passes built on them — is one loop over that list. OBDDs
(:mod:`repro.kc.obdd`) keep their nodes here too, as decision nodes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

FALSE_LEAF = 0
TRUE_LEAF = 1


@dataclass(frozen=True, slots=True)
class Decision:
    """Test ``var``; take ``lo`` when false, ``hi`` when true."""

    var: int
    lo: int
    hi: int


@dataclass(frozen=True, slots=True)
class AndNode:
    """Independent-∧: children must have pairwise disjoint variable sets."""

    children: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class OrNode:
    """Disjoint-∨: children must be pairwise inconsistent (d-DNNF only)."""

    children: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Literal:
    """A variable leaf (possibly negated) for d-DNNF circuits."""

    var: int
    positive: bool


Node = Decision | AndNode | OrNode | Literal


@dataclass
class Circuit:
    """A circuit arena. Ids 0/1 are the false/true leaves."""

    nodes: list[Optional[Node]] = field(default_factory=lambda: [None, None])
    root: int = TRUE_LEAF
    _unique: dict[tuple, int] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    def _intern(self, key: tuple, node: Node) -> int:
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        self.nodes.append(node)
        index = len(self.nodes) - 1
        self._unique[key] = index
        return index

    def decision(self, var: int, lo: int, hi: int) -> int:
        """Add (or reuse) a decision node; collapses lo == hi."""
        if lo == hi:
            return lo
        return self._intern(("d", var, lo, hi), Decision(var, lo, hi))

    def conjoin(self, children: Iterable[int]) -> int:
        """Add an independent-∧ node with unit simplification."""
        kids = []
        for child in children:
            if child == FALSE_LEAF:
                return FALSE_LEAF
            if child == TRUE_LEAF:
                continue
            kids.append(child)
        if not kids:
            return TRUE_LEAF
        if len(kids) == 1:
            return kids[0]
        ordered = tuple(sorted(kids))
        return self._intern(("a", ordered), AndNode(ordered))

    def disjoin(self, children: Iterable[int]) -> int:
        """Add a disjoint-∨ node with unit simplification."""
        kids = []
        for child in children:
            if child == TRUE_LEAF:
                return TRUE_LEAF
            if child == FALSE_LEAF:
                continue
            kids.append(child)
        if not kids:
            return FALSE_LEAF
        if len(kids) == 1:
            return kids[0]
        ordered = tuple(sorted(kids))
        return self._intern(("o", ordered), OrNode(ordered))

    def literal(self, var: int, positive: bool = True) -> int:
        return self._intern(("l", var, positive), Literal(var, positive))

    def negated(self) -> "Circuit":
        """The complement of a circuit of decision nodes: the same DAG with
        its two leaves swapped (each world follows exactly one path)."""
        swap = {FALSE_LEAF: TRUE_LEAF, TRUE_LEAF: FALSE_LEAF}
        out = Circuit(root=swap.get(self.root, self.root))
        for node in self.nodes[2:]:
            if not isinstance(node, Decision):
                raise ValueError("only a circuit of decision nodes negates by its leaves")
            out.nodes.append(
                Decision(node.var, swap.get(node.lo, node.lo), swap.get(node.hi, node.hi))
            )
        return out

    # -- structure ----------------------------------------------------------

    def children(self, node_id: int) -> tuple[int, ...]:
        node = self.nodes[node_id]
        if isinstance(node, Decision):
            return (node.lo, node.hi)
        if isinstance(node, (AndNode, OrNode)):
            return node.children
        return ()

    def reachable(self, root: Optional[int] = None) -> list[int]:
        """Ids of the internal nodes reachable from the root, ascending.

        Children have smaller ids than their parents, so one sweep down
        from the root marks every reachable node, and ascending ids list
        children before parents.
        """
        start = self.root if root is None else root
        marked = bytearray(start + 1)
        marked[start] = 1
        for node_id in range(start, TRUE_LEAF, -1):
            if marked[node_id]:
                # `children` inlined: every pass starts with this sweep.
                node = self.nodes[node_id]
                if isinstance(node, Decision):
                    marked[node.lo] = marked[node.hi] = 1
                elif not isinstance(node, Literal):
                    for child in node.children:
                        marked[child] = 1
        first = TRUE_LEAF + 1
        return list(itertools.compress(range(first, start + 1), marked[first:]))

    def scopes(
        self, root: Optional[int] = None
    ) -> Iterator[tuple[int, dict[int, frozenset[int]]]]:
        """Visit the reachable nodes children first, yielding each id with a
        map that holds the variables tested below it and below its children.

        A node's set leaves the map once its last parent has been visited,
        so a chain of *n* decisions holds a few sets at a time, not *n*.
        """
        order = self.reachable(root)
        parents = Counter(child for node_id in order for child in self.children(node_id))
        below: dict[int, frozenset[int]] = {FALSE_LEAF: frozenset(), TRUE_LEAF: frozenset()}
        for node_id in order:
            node = self.nodes[node_id]
            if isinstance(node, Decision):
                below[node_id] = frozenset({node.var}) | below[node.lo] | below[node.hi]
            elif isinstance(node, Literal):
                below[node_id] = frozenset({node.var})
            else:
                below[node_id] = frozenset().union(*(below[c] for c in node.children))
            yield node_id, below
            for child in self.children(node_id):
                parents[child] -= 1
                if parents[child] == 0 and child > TRUE_LEAF:
                    del below[child]

    def size(self, root: Optional[int] = None) -> int:
        """Number of internal nodes reachable from the root."""
        return len(self.reachable(root))

    def edge_count(self, root: Optional[int] = None) -> int:
        return sum(len(self.children(i)) for i in self.reachable(root))

    def variables(self, root: Optional[int] = None) -> frozenset[int]:
        out: set[int] = set()
        for node_id in self.reachable(root):
            node = self.nodes[node_id]
            if isinstance(node, Decision):
                out.add(node.var)
            elif isinstance(node, Literal):
                out.add(node.var)
        return frozenset(out)

    # -- semantics ----------------------------------------------------------

    def evaluate(self, assignment: Mapping[int, bool], root: Optional[int] = None) -> bool:
        """Evaluate the circuit under a total assignment."""
        start = self.root if root is None else root
        value = {FALSE_LEAF: False, TRUE_LEAF: True}
        for node_id in self.reachable(start):
            node = self.nodes[node_id]
            if isinstance(node, Decision):
                value[node_id] = value[node.hi] if assignment[node.var] else value[node.lo]
            elif isinstance(node, AndNode):
                value[node_id] = all(value[c] for c in node.children)
            elif isinstance(node, OrNode):
                value[node_id] = any(value[c] for c in node.children)
            else:
                value[node_id] = assignment[node.var] == node.positive
        return value[start]

    def wmc(self, probabilities: Mapping[int, float], root: Optional[int] = None) -> float:
        """Weighted model count, one bottom-up pass.

        Correct when the circuit satisfies the decision-DNNF / d-DNNF
        invariants (independent ∧, disjoint ∨). The result is the
        probability that the circuit evaluates true when each variable *v*
        is independently true with probability ``probabilities[v]``.
        Variables not tested on a path marginalize out automatically.
        """
        start = self.root if root is None else root
        value = [0.0, 1.0] + [0.0] * (start - 1)  # by id: the leaves, then nodes
        for node_id in self.reachable(start):
            node = self.nodes[node_id]
            if isinstance(node, Decision):
                p = probabilities[node.var]
                value[node_id] = (1.0 - p) * value[node.lo] + p * value[node.hi]
            elif isinstance(node, AndNode):
                result = 1.0
                for child in node.children:
                    result *= value[child]
                value[node_id] = result
            elif isinstance(node, OrNode):
                value[node_id] = sum(value[child] for child in node.children)
            else:
                p = probabilities[node.var]
                value[node_id] = p if node.positive else 1.0 - p
        return value[start]

    def model_count(self, variables: Iterable[int], root: Optional[int] = None) -> float:
        """Unweighted model count over the given variable universe."""
        universe = list(variables)
        half = {v: 0.5 for v in universe}
        return self.wmc(half, root) * (2 ** len(universe))

    # -- validation ----------------------------------------------------------

    def check_fbdd(self, root: Optional[int] = None) -> bool:
        """True when no root→leaf path tests a variable twice (FBDD).

        Uses the sufficient (and for our constructions, necessary) check that
        a decision variable does not reappear below either branch.
        """
        for node_id, below in self.scopes(root):
            node = self.nodes[node_id]
            if isinstance(node, Decision) and (
                node.var in below[node.lo] or node.var in below[node.hi]
            ):
                return False
        return True

    def check_decision_dnnf(self, root: Optional[int] = None) -> bool:
        """FBDD property plus: ∧-children have pairwise disjoint variables."""
        for node_id, below in self.scopes(root):
            node = self.nodes[node_id]
            if isinstance(node, OrNode):
                return False  # decision-DNNFs have no free ∨ nodes
            if isinstance(node, Decision) and (
                node.var in below[node.lo] or node.var in below[node.hi]
            ):
                return False
            if isinstance(node, AndNode) and not _disjoint(below, node.children):
                return False
        return True

    def check_d_dnnf(self, root: Optional[int] = None) -> bool:
        """d-DNNF validity: ∧ decomposable and ∨ deterministic.

        Determinism of ∨ nodes is verified *semantically* by enumerating
        assignments over the node's variables, so this check is only suitable
        for small circuits (tests, Fig. 2 reproductions).
        """
        for node_id, below in self.scopes(root):
            node = self.nodes[node_id]
            if isinstance(node, AndNode) and not _disjoint(below, node.children):
                return False
            if isinstance(node, OrNode):
                variables = sorted(below[node_id])
                for bits in itertools.product((False, True), repeat=len(variables)):
                    assignment = dict(zip(variables, bits))
                    true_children = sum(
                        1
                        for child in node.children
                        if self.evaluate(assignment, child)
                    )
                    if true_children > 1:
                        return False
        return True


def _disjoint(below: Mapping[int, frozenset[int]], children: Iterable[int]) -> bool:
    """Whether the children's variable sets are pairwise disjoint."""
    seen: set[int] = set()
    for child in children:
        if below[child] & seen:
            return False
        seen.update(below[child])
    return True
