"""Knowledge-compilation circuits: FBDD, decision-DNNF and d-DNNF nodes.

The node types follow Sec. 7 of the paper:

* a *decision node* tests a Boolean variable and branches (the building block
  of FBDDs and OBDDs);
* an *independent-∧* node conjoins children over disjoint variable sets
  (decision-DNNF = FBDD + independent-∧);
* a *disjoint-∨* node disjoins children that are mutually exclusive events
  (d-DNNF); negation leaves complete the d-DNNF language.

Circuits are DAGs stored in a :class:`Circuit` arena; node ids are ints.
Weighted model counting over a valid circuit is a single bottom-up pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

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

    def reachable(self, root: Optional[int] = None) -> list[int]:
        """Ids of nodes reachable from the root (leaves excluded)."""
        start = self.root if root is None else root
        seen: set[int] = set()
        stack = [start]
        order: list[int] = []
        while stack:
            node_id = stack.pop()
            if node_id in seen or node_id in (FALSE_LEAF, TRUE_LEAF):
                continue
            seen.add(node_id)
            order.append(node_id)
            stack.extend(self._children(node_id))
        return order

    def _children(self, node_id: int) -> tuple[int, ...]:
        node = self.nodes[node_id]
        if isinstance(node, Decision):
            return (node.lo, node.hi)
        if isinstance(node, (AndNode, OrNode)):
            return node.children
        return ()

    def size(self, root: Optional[int] = None) -> int:
        """Number of internal nodes reachable from the root."""
        return len(self.reachable(root))

    def edge_count(self, root: Optional[int] = None) -> int:
        return sum(len(self._children(i)) for i in self.reachable(root))

    def variables(self, root: Optional[int] = None) -> frozenset[int]:
        out: set[int] = set()
        for node_id in self.reachable(root):
            node = self.nodes[node_id]
            if isinstance(node, Decision):
                out.add(node.var)
            elif isinstance(node, Literal):
                out.add(node.var)
        return frozenset(out)

    def _vars_below(self, root: int, memo: dict[int, frozenset[int]]) -> frozenset[int]:
        if root in (FALSE_LEAF, TRUE_LEAF):
            return frozenset()
        cached = memo.get(root)
        if cached is not None:
            return cached
        node = self.nodes[root]
        if isinstance(node, Literal):
            result = frozenset({node.var})
        elif isinstance(node, Decision):
            result = (
                frozenset({node.var})
                | self._vars_below(node.lo, memo)
                | self._vars_below(node.hi, memo)
            )
        else:
            result = frozenset().union(
                *(self._vars_below(c, memo) for c in node.children)
            )
        memo[root] = result
        return result

    # -- semantics ----------------------------------------------------------

    def evaluate(self, assignment: Mapping[int, bool], root: Optional[int] = None) -> bool:
        """Evaluate the circuit under a total assignment."""
        start = self.root if root is None else root
        memo: dict[int, bool] = {}

        def walk(node_id: int) -> bool:
            if node_id == TRUE_LEAF:
                return True
            if node_id == FALSE_LEAF:
                return False
            if node_id in memo:
                return memo[node_id]
            node = self.nodes[node_id]
            if isinstance(node, Decision):
                result = walk(node.hi if assignment[node.var] else node.lo)
            elif isinstance(node, AndNode):
                result = all(walk(c) for c in node.children)
            elif isinstance(node, OrNode):
                result = any(walk(c) for c in node.children)
            elif isinstance(node, Literal):
                result = assignment[node.var] == node.positive
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown node {node!r}")
            memo[node_id] = result
            return result

        return walk(start)

    def wmc(self, probabilities: Mapping[int, float], root: Optional[int] = None) -> float:
        """Weighted model count, one bottom-up pass.

        Correct when the circuit satisfies the decision-DNNF / d-DNNF
        invariants (independent ∧, disjoint ∨). The result is the
        probability that the circuit evaluates true when each variable *v*
        is independently true with probability ``probabilities[v]``.
        Variables not tested on a path marginalize out automatically.
        """
        start = self.root if root is None else root
        memo: dict[int, float] = {}

        def walk(node_id: int) -> float:
            if node_id == TRUE_LEAF:
                return 1.0
            if node_id == FALSE_LEAF:
                return 0.0
            cached = memo.get(node_id)
            if cached is not None:
                return cached
            node = self.nodes[node_id]
            if isinstance(node, Decision):
                p = probabilities[node.var]
                result = (1.0 - p) * walk(node.lo) + p * walk(node.hi)
            elif isinstance(node, AndNode):
                result = 1.0
                for child in node.children:
                    result *= walk(child)
            elif isinstance(node, OrNode):
                result = sum(walk(child) for child in node.children)
            elif isinstance(node, Literal):
                p = probabilities[node.var]
                result = p if node.positive else 1.0 - p
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown node {node!r}")
            memo[node_id] = result
            return result

        return walk(start)

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
        start = self.root if root is None else root
        memo: dict[int, frozenset[int]] = {}
        for node_id in self.reachable(start):
            node = self.nodes[node_id]
            if isinstance(node, Decision):
                below = self._vars_below(node.lo, memo) | self._vars_below(
                    node.hi, memo
                )
                if node.var in below:
                    return False
        return True

    def check_decision_dnnf(self, root: Optional[int] = None) -> bool:
        """FBDD property plus: ∧-children have pairwise disjoint variables."""
        start = self.root if root is None else root
        if not self.check_fbdd(start):
            return False
        memo: dict[int, frozenset[int]] = {}
        for node_id in self.reachable(start):
            node = self.nodes[node_id]
            if isinstance(node, OrNode):
                return False  # decision-DNNFs have no free ∨ nodes
            if isinstance(node, AndNode):
                seen: set[int] = set()
                for child in node.children:
                    below = self._vars_below(child, memo)
                    if below & seen:
                        return False
                    seen.update(below)
        return True

    def check_d_dnnf(self, root: Optional[int] = None) -> bool:
        """d-DNNF validity: ∧ decomposable and ∨ deterministic.

        Determinism of ∨ nodes is verified *semantically* by enumerating
        assignments over the node's variables, so this check is only suitable
        for small circuits (tests, Fig. 2 reproductions).
        """
        start = self.root if root is None else root
        memo: dict[int, frozenset[int]] = {}
        for node_id in self.reachable(start):
            node = self.nodes[node_id]
            if isinstance(node, AndNode):
                seen: set[int] = set()
                for child in node.children:
                    below = self._vars_below(child, memo)
                    if below & seen:
                        return False
                    seen.update(below)
            elif isinstance(node, OrNode):
                variables = sorted(self._vars_below(node_id, memo))
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
