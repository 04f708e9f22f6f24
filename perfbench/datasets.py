"""Seeded data sets, their CSV files, and a closed-form oracle for them.

Both databases derive from the workload seed alone. They are written to CSV
once per run and the program under test only ever sees the files; the
in-memory copies kept here feed the oracle, which recomputes every scheduled
answer from the generator's own numbers without calling into ``repro``.

``sweep_db``
    ``R(x)``, ``S(x,y)``, ``T(y)`` over *n* x-values and as many
    y-values. Every x is linked to ``SWEEP_FANOUT`` y-values at fixed seeded
    offsets, so every y has exactly ``SWEEP_FANOUT`` partners too: each point
    query touches the same number of rows, whichever constant it selects.
    An empty ``Audit(id)`` rides along; no query reads it.

``family_db``
    ``K`` disjoint triples ``R<k>(a)``, ``S<k>(a,b)``, ``T<k>(b)`` over a
    ``FAMILY_DOMAIN``-constant domain. Each family lacks its own
    ``FAMILY_HOLES`` of the ``S`` tuples, so every unsafe query on a family
    grounds a 21-variable lineage of a *shape no other family has*. Distinct
    relation names alone would not do: lineage variables are numbered per
    query, complete families ground the very same Boolean formula, and the
    hash-consed kernel then serves its cofactors from the memo tables (94 %
    hits, 5 ms where a cold count takes 60 ms). The shapes come from a fixed
    catalogue, not from the seed: the cost of a count depends on the shape
    alone, so every seed schedules the same work in another order over
    other probabilities.
"""

from __future__ import annotations

import csv
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

SWEEP_FANOUT = 5
FAMILY_DOMAIN = 4
FAMILY_HOLES = 3

Rows = Dict[Tuple[str, ...], float]


def _probability(rng: random.Random) -> float:
    # Away from 0 and 1 so no lineage variable simplifies out and no
    # posterior denominator vanishes.
    return round(rng.uniform(0.05, 0.95), 6)


@dataclass
class SweepDB:
    """The in-memory copy of ``sweep_db`` (see module docstring)."""

    r: Dict[str, float]
    s: Dict[Tuple[str, str], float]
    t: Dict[str, float]
    partners_of_y: Dict[str, List[str]]
    partners_of_x: Dict[str, List[str]]

    def relations(self) -> Dict[str, Tuple[Tuple[str, ...], Rows]]:
        return {
            "R": (("x",), {(x,): p for x, p in self.r.items()}),
            "S": (("x", "y"), dict(self.s)),
            "T": (("y",), {(y,): p for y, p in self.t.items()}),
            "Audit": (("id",), {}),
        }

    # -- oracle ------------------------------------------------------------

    def p_select_y(self, y: str) -> float:
        """``P(R(x), S(x,'y'))``: independent-or over the y's partners."""
        miss = 1.0
        for x in self.partners_of_y[y]:
            miss *= 1.0 - self.r[x] * self.s[(x, y)]
        return 1.0 - miss

    def p_select_x(self, x: str) -> float:
        """``P(S('x',y), T(y))``."""
        miss = 1.0
        for y in self.partners_of_x[x]:
            miss *= 1.0 - self.s[(x, y)] * self.t[y]
        return 1.0 - miss


def make_sweep_db(seed: int, n: int, fanout: int = SWEEP_FANOUT) -> SweepDB:
    rng = random.Random(f"perfbench/sweep/{seed}")
    offsets = sorted(rng.sample(range(n), fanout))
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    r = {x: _probability(rng) for x in xs}
    t = {y: _probability(rng) for y in ys}
    s: Dict[Tuple[str, str], float] = {}
    partners_of_x: Dict[str, List[str]] = {x: [] for x in xs}
    partners_of_y: Dict[str, List[str]] = {y: [] for y in ys}
    for i, x in enumerate(xs):
        for offset in offsets:
            y = ys[(i + offset) % n]
            s[(x, y)] = _probability(rng)
            partners_of_x[x].append(y)
            partners_of_y[y].append(x)
    return SweepDB(r, s, t, partners_of_y, partners_of_x)


@dataclass
class Family:
    """One ``(R<k>, S<k>, T<k>)`` triple and the oracle over it.

    The oracle enumerates the ``2^d × 2^d`` presence patterns of the unary
    relations; given a pattern the binary relation's tuples are independent,
    so each pattern contributes a product. ``pin`` overrides marginals
    (1.0 / 0.0 for asserted / denied facts): conditioning a
    tuple-independent database on fact literals is exactly that.
    """

    index: int
    r: List[float]
    #: 0.0 marks a tuple the family lacks (its shape's holes).
    s: List[List[float]]
    t: List[float]

    @property
    def names(self) -> Tuple[str, str, str]:
        return f"R{self.index}", f"S{self.index}", f"T{self.index}"

    def relations(self) -> Dict[str, Tuple[Tuple[str, ...], Rows]]:
        d = len(self.r)
        rn, sn, tn = self.names
        consts = [f"c{i}" for i in range(d)]
        return {
            rn: (("a",), {(consts[i],): self.r[i] for i in range(d)}),
            sn: (
                ("a", "b"),
                {
                    (consts[i], consts[j]): self.s[i][j]
                    for i in range(d)
                    for j in range(d)
                    if self.s[i][j] > 0.0
                },
            ),
            tn: (("b",), {(consts[j],): self.t[j] for j in range(d)}),
        }

    # -- query strings -----------------------------------------------------

    def cq(self) -> str:
        rn, sn, tn = self.names
        return f"{rn}(x), {sn}(x,y), {tn}(y)"

    def ucq(self) -> str:
        rn, sn, tn = self.names
        return f"{rn}(x), {sn}(x,y) | {sn}(u,v), {tn}(v)"

    def fact(self, relation: str, *indices: int) -> str:
        """A ground-atom spec, e.g. ``R3('c0')``, for constraints, forces and
        single-fact queries; ``fact(*key)`` accepts an oracle fact key."""
        name = {"R": self.names[0], "S": self.names[1], "T": self.names[2]}[relation]
        args = ",".join(f"'c{i}'" for i in indices)
        return f"{name}({args})"

    # -- oracle ------------------------------------------------------------

    def _pinned(
        self, pin: Optional[Mapping[Tuple, float]]
    ) -> Tuple[List[float], List[List[float]], List[float]]:
        r, s, t = list(self.r), [list(row) for row in self.s], list(self.t)
        for key, value in (pin or {}).items():
            if key[0] == "R":
                r[key[1]] = value
            elif key[0] == "T":
                t[key[1]] = value
            else:
                s[key[1]][key[2]] = value
        return r, s, t

    def probability(self, kind: str, pin: Optional[Mapping[Tuple, float]] = None) -> float:
        """``P(cq)`` or ``P(ucq)`` under optional pinned marginals."""
        r, s, t = self._pinned(pin)
        d = len(r)
        patterns = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
        weight_a = np.prod(np.where(patterns > 0, r, 1.0 - np.array(r)), axis=1)
        weight_b = np.prod(np.where(patterns > 0, t, 1.0 - np.array(t)), axis=1)
        # log(1 - s); a pinned-certain tuple is capped one ulp below 1 so an
        # irrelevant one still contributes 0 * finite = 0 (error ~1e-16).
        log_miss = np.log1p(-np.minimum(np.array(s), 1.0 - 2.0**-53))
        if kind == "cq":
            exponent = patterns @ log_miss @ patterns.T
        else:
            exponent = log_miss.sum() - (1.0 - patterns) @ log_miss @ (1.0 - patterns).T
        return float(weight_a @ (1.0 - np.exp(exponent)) @ weight_b)

    def posterior_of_r(self, i: int, kind: str) -> float:
        """``P(R<k>(c_i) | query)``: what ``tuple_posteriors`` reports."""
        joint = self.r[i] * self.probability(kind, {("R", i): 1.0})
        return joint / self.probability(kind)


FactKey = Tuple  # ("R", i) | ("T", j) | ("S", i, j)


@dataclass
class Scenario:
    """A constraint set Γ over one anchor family, with its oracle.

    ``require``: ``+R(c0)``, ``-T(c1)`` and the family's UCQ must hold.
    ``forbid``:  ``+T(c2)`` and the family's CQ must *not* hold.
    Fact literals pin marginals; the query part is a ratio of two pinned
    enumerations (the CQ implies the UCQ, so ``P(cq ∧ ucq) = P(cq)``).
    """

    anchor: Family
    kind: str

    @property
    def pin(self) -> Dict[FactKey, float]:
        if self.kind == "require":
            return {("R", 0): 1.0, ("T", 1): 0.0}
        return {("T", 2): 1.0}

    def specs(self) -> List[str]:
        a = self.anchor
        if self.kind == "require":
            return ["+" + a.fact("R", 0), "-" + a.fact("T", 1), a.ucq()]
        return ["+" + a.fact("T", 2), "! " + a.cq()]

    def free_facts(self) -> List[FactKey]:
        """Facts of the anchor that Γ does not pin, in a fixed order."""
        d = len(self.anchor.r)
        keys: List[FactKey] = [("R", i) for i in range(d)]
        keys += [("T", j) for j in range(d)]
        keys += [("S", i, j) for i in range(d) for j in range(d) if self.anchor.s[i][j] > 0.0]
        return [key for key in keys if key not in self.pin]

    def _mass(self, pin: Mapping[FactKey, float]) -> float:
        if self.kind == "require":
            return self.anchor.probability("ucq", pin)
        return 1.0 - self.anchor.probability("cq", pin)

    def prior(self, key: FactKey) -> float:
        a = self.anchor
        if key[0] == "R":
            return a.r[key[1]]
        if key[0] == "T":
            return a.t[key[1]]
        return a.s[key[1]][key[2]]

    def fact_posterior(
        self, key: FactKey, force: Optional[Mapping[FactKey, float]] = None
    ) -> float:
        """``P(fact | Γ, force)`` for a fact of the anchor that neither Γ nor
        the what-if evidence *force* pins."""
        pinned = {**self.pin, **(force or {})}
        return self.prior(key) * self._mass({**pinned, key: 1.0}) / self._mass(pinned)


def make_scenarios(anchors: Sequence[Family]) -> List[Scenario]:
    return [
        Scenario(anchor, "require" if index % 2 == 0 else "forbid")
        for index, anchor in enumerate(anchors)
    ]


def family_shapes(count: int, domain: int = FAMILY_DOMAIN, holes: int = FAMILY_HOLES) -> List[Tuple]:
    """The first *count* shapes of the catalogue: which S tuples a family
    lacks. Seed-independent on purpose (see the module docstring)."""
    cells = [(i, j) for i in range(domain) for j in range(domain)]
    shapes = list(itertools.combinations(cells, holes))
    if count > len(shapes):
        raise ValueError(f"only {len(shapes)} distinct shapes for {count} families")
    return random.Random("perfbench/shapes").sample(shapes, count)


def make_families(seed: int, count: int, domain: int = FAMILY_DOMAIN) -> List[Family]:
    rng = random.Random(f"perfbench/family/{seed}")
    families = []
    for k, holes in enumerate(family_shapes(count, domain)):
        r = [_probability(rng) for _ in range(domain)]
        s = [
            [0.0 if (i, j) in holes else _probability(rng) for j in range(domain)]
            for i in range(domain)
        ]
        t = [_probability(rng) for _ in range(domain)]
        families.append(Family(k, r, s, t))
    return families


def write_csvs(
    relations: Mapping[str, Tuple[Sequence[str], Rows]], directory: Path
) -> List[str]:
    """Write one ``<relation>.csv`` per relation; returns the paths, sorted.

    The format is the engine's own (header row, trailing ``P`` column);
    probabilities are written with ``repr`` so they round-trip exactly.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in sorted(relations):
        attributes, rows = relations[name]
        path = directory / f"{name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(list(attributes) + ["P"])
            for values in sorted(rows):
                writer.writerow(list(values) + [repr(rows[values])])
        paths.append(str(path))
    return paths
