"""Circuit differentiation: posterior tuple marginals and influence.

Once a query is compiled into a decision-DNNF (the DPLL trace), a single
upward + downward pass computes, for *every* variable simultaneously,

    P(F ∧ X) and P(F ∧ ¬X),

hence the posterior P(X | F) — "how likely is tuple t to be present given
that the query is true" — and the sensitivity ∂P(F)/∂p(X). This is
Darwiche's differential approach to inference, applied to lineage circuits;
it is what a probabilistic database needs for explanation and
responsibility analysis.

The downward pass propagates partial derivatives: for a node n with parent
contributions δ(n) (= ∂P(F)/∂P(n)),

* decision node m on X with children (lo, hi):
  δ(lo) += δ(m)·(1−p(X)),  δ(hi) += δ(m)·p(X), and m contributes
  δ(m)·value(hi) to ∂P(F)/∂p(X) (times +1) and δ(m)·value(lo) (times −1);
* ∧ node: δ(child) += δ(m)·Π value(other children).

Variables never tested on a true path are independent of F: their posterior
equals their prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .circuits import AndNode, Circuit, Decision, FALSE_LEAF, Literal, OrNode, TRUE_LEAF


@dataclass(frozen=True)
class VariableReport:
    """Differentiation output for one variable."""

    prior: float
    posterior: float
    derivative: float  # ∂P(F)/∂p(X)

    @property
    def influence(self) -> float:
        """|derivative|: how much this tuple's probability moves P(F)."""
        return abs(self.derivative)


def differentiate(
    circuit: Circuit,
    probabilities: Mapping[int, float],
    root: Optional[int] = None,
) -> dict[int, VariableReport]:
    """Posterior marginals P(X|F) and derivatives for every variable.

    The circuit must satisfy the decision-DNNF / d-DNNF invariants (as
    produced by :func:`repro.wmc.dpll.compile_decision_dnnf`). Raises
    ZeroDivisionError when P(F) = 0 (posteriors undefined).
    """
    start = circuit.root if root is None else root

    # upward pass: value(n) = probability of the sub-circuit
    order = circuit.reachable(start)
    value: dict[int, float] = {TRUE_LEAF: 1.0, FALSE_LEAF: 0.0}
    for node_id in order:
        node = circuit.nodes[node_id]
        if isinstance(node, Decision):
            p = probabilities[node.var]
            value[node_id] = (1.0 - p) * value[node.lo] + p * value[node.hi]
        elif isinstance(node, AndNode):
            product = 1.0
            for child in node.children:
                product *= value[child]
            value[node_id] = product
        elif isinstance(node, OrNode):
            value[node_id] = sum(value[child] for child in node.children)
        elif isinstance(node, Literal):
            p = probabilities[node.var]
            value[node_id] = p if node.positive else 1.0 - p
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown node {node!r}")

    total = value.get(start, 1.0 if start == TRUE_LEAF else 0.0)
    if total == 0.0:  # prodb-lint: exact -- division guard
        raise ZeroDivisionError("P(F) = 0: posteriors are undefined")

    # downward pass: delta(n) = ∂P(F)/∂value(n)
    delta: dict[int, float] = {node_id: 0.0 for node_id in order}
    delta[start] = 1.0
    joint_true: dict[int, float] = {}
    derivative: dict[int, float] = {}

    for node_id in reversed(order):
        node = circuit.nodes[node_id]
        d = delta.get(node_id, 0.0)
        # Skipping only exactly-zero deltas is sound (no tolerance wanted).
        if d == 0.0 and not isinstance(node, (Decision, Literal)):  # prodb-lint: exact
            continue
        if isinstance(node, Decision):
            p = probabilities[node.var]
            if node.lo not in (FALSE_LEAF, TRUE_LEAF):
                delta[node.lo] = delta.get(node.lo, 0.0) + d * (1.0 - p)
            if node.hi not in (FALSE_LEAF, TRUE_LEAF):
                delta[node.hi] = delta.get(node.hi, 0.0) + d * p
            joint_true[node.var] = (
                joint_true.get(node.var, 0.0) + d * p * value[node.hi]
            )
            derivative[node.var] = (
                derivative.get(node.var, 0.0)
                + d * (value[node.hi] - value[node.lo])
            )
        elif isinstance(node, AndNode):
            for child in node.children:
                if child in (FALSE_LEAF, TRUE_LEAF):
                    continue
                product = d
                for other in node.children:
                    if other != child:
                        product *= value[other]
                delta[child] = delta.get(child, 0.0) + product
        elif isinstance(node, OrNode):
            for child in node.children:
                if child not in (FALSE_LEAF, TRUE_LEAF):
                    delta[child] = delta.get(child, 0.0) + d
        elif isinstance(node, Literal):
            p = probabilities[node.var]
            if node.positive:
                joint_true[node.var] = joint_true.get(node.var, 0.0) + d * p
                derivative[node.var] = derivative.get(node.var, 0.0) + d
            else:
                derivative[node.var] = derivative.get(node.var, 0.0) - d

    reports: dict[int, VariableReport] = {}
    tested = set(joint_true) | set(derivative)
    for var, p in probabilities.items():
        if var in tested:
            joint = joint_true.get(var, 0.0)
            # variables only partially tested: paths that never test X keep
            # it at its prior — account for the untested mass.
            untested_mass = total - _tested_mass(var, joint, derivative, p, total)
            posterior = (joint + max(untested_mass, 0.0) * p) / total
            reports[var] = VariableReport(
                prior=p,
                posterior=posterior,
                derivative=derivative.get(var, 0.0),
            )
        else:
            reports[var] = VariableReport(prior=p, posterior=p, derivative=0.0)
    return reports


def _tested_mass(
    var: int,
    joint: float,
    derivative: Mapping[int, float],
    p: float,
    total: float,
) -> float:
    """P(F) restricted to the paths that test *var*.

    Summed over the decision nodes m testing *var*, with δ(m) = ∂P(F)/∂
    value(m), the downward pass accumulated ``joint`` = p·Σ δ·value(hi)
    and ∂ = Σ δ·(value(hi) − value(lo)). So Σ δ·value(hi) = joint/p,
    Σ δ·value(lo) = joint/p − ∂, and the tested mass is their mix
    p·Σ δ·value(hi) + (1−p)·Σ δ·value(lo). At p = 0 the hi sum is unknown,
    but the caller weighs the untested rest by p, so ``joint`` (= 0) does.
    """
    if p <= 0.0:
        return joint
    d = derivative.get(var, 0.0)
    high_mass = joint / p  # Σ δ·value(hi) over testing nodes
    low_mass = high_mass - d  # Σ δ·value(lo)
    return p * high_mass + (1.0 - p) * low_mass

