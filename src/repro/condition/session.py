"""Server-side scenario sessions over compiled constraint circuits.

The server installs a constraint set Γ once (``POST /condition``) and hands
back a *scenario id*; later queries carrying that id are answered against
the compiled :class:`~repro.condition.core.ConditionedScenario` instead of
recompiling Γ per request. This module is the registry behind that
protocol:

* **Content-addressed ids.** ``scenario_id = f(db_fingerprint, Γ_fingerprint)``
  — installing the same constraints against the same database contents is
  idempotent and returns the same id, on any worker.
* **Bounded circuit memory.** Compiled scenarios live in an
  :class:`~repro.engine.cache.LRUCache` keyed ``(db_fp, Γ_fp)`` — the same
  invalidation-by-construction scheme as the engine's answer cache. The id
  table survives eviction: it stores only the constraint *specs*, so a
  resolved id whose circuit was evicted recompiles transparently (counted
  by ``scenario_recompiles_total``).
* **Staleness.** Mutating the database changes its fingerprint; resolving
  a scenario installed against the old contents raises
  :class:`StaleScenarioError` (the conditional answers would silently mix
  old evidence with new data otherwise). Clients re-install.
* **What-if derivations.** ``derived()`` memoizes
  :meth:`~repro.condition.core.ConditionedScenario.whatif` cofactors in
  the same LRU, keyed by the base scenario plus a canonical force
  fingerprint.

Thread safety: the manager's id table takes a
:data:`~repro.sanitize.RANK_SCENARIO` ranked lock held only for
bookkeeping — never across constraint compilation or a conditioned
evaluation, both of which take the scenario *family's* lock of the same
rank (two same-rank locks must never nest; see ``docs/dev.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from ..core.pdb import ProbabilisticDatabase
from ..core.tid import TupleIndependentDatabase
from ..engine.cache import LRUCache, digest
from ..logic.semantics import Fact
from ..obs.metrics import MetricsRegistry, get_registry
from ..sanitize import RANK_SCENARIO, RankedLock
from .core import ConditionedScenario, Constraint, ConstraintSet

__all__ = [
    "ScenarioManager",
    "StaleScenarioError",
    "UnknownScenarioError",
    "scenario_id_of",
]


class UnknownScenarioError(KeyError):
    """No scenario with this id is installed (or it was dropped)."""


class StaleScenarioError(ValueError):
    """The database changed since the scenario was installed.

    Conditioned answers are only meaningful against the contents Γ was
    grounded over; the client must re-install the constraints (which, being
    content-addressed, yields a fresh id for the new fingerprint).
    """


def scenario_id_of(db_fingerprint: str, constraints: ConstraintSet) -> str:
    """The content-addressed scenario id for Γ over these database contents."""
    return "s" + digest(["scenario", db_fingerprint, constraints.fingerprint()])[:16]


@dataclass
class _Installed:
    """Id-table entry: enough to recompile after eviction, plus bookkeeping."""

    db_fingerprint: str
    constraints: ConstraintSet
    #: Circuit-cache keys owned by this scenario (base + derived), so a
    #: drop can release them eagerly instead of waiting for LRU aging.
    cache_keys: Set[Tuple[object, ...]] = field(default_factory=set)


class ScenarioManager:
    """The registry of installed scenarios and their compiled circuits.

    One manager serves one database façade (a server, or one worker
    process). All public methods are thread-safe; compilation runs outside
    the registry lock, so two concurrent installs of the same Γ may both
    compile — the second ``put`` wins, which is harmless because the value
    is content-addressed.
    """

    def __init__(
        self,
        pdb: ProbabilisticDatabase,
        *,
        maxsize: int = 32,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.pdb = pdb
        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._lock = RankedLock(RANK_SCENARIO, "condition.manager")
        self._installed: Dict[str, _Installed] = {}
        self._circuits = LRUCache(maxsize=maxsize)
        self._installs = registry.counter(
            "scenario_installs_total", "Scenario installs (POST /condition)"
        )
        self._recompiles = registry.counter(
            "scenario_recompiles_total",
            "Scenario circuits recompiled after LRU eviction",
        )
        self._stale = registry.counter(
            "scenario_stale_total", "Scenario resolutions rejected as stale"
        )
        self._drops = registry.counter(
            "scenario_drops_total", "Scenario drops (DELETE /condition/<id>)"
        )
        self._evictions = registry.counter(
            "scenario_evictions_total", "Scenario circuits evicted by the LRU"
        )
        self._published_evictions = 0

    # -- install / drop --------------------------------------------------------

    def install(
        self,
        constraints: Union[ConstraintSet, str, Iterable[Union[str, Constraint]]],
    ) -> Tuple[str, ConditionedScenario]:
        """Compile (or re-use) Γ against the current database contents.

        Idempotent: the id is a content hash of ``(db_fp, Γ_fp)``, so
        re-installing the same constraints returns the same id and the
        cached circuit. Raises
        :class:`~repro.condition.core.InconsistentConstraints` when
        ``P(Γ) = 0``.
        """
        gamma = (
            constraints
            if isinstance(constraints, ConstraintSet)
            else ConstraintSet.parse(constraints)
        )
        db_fp = self.pdb.tid.fingerprint()
        scenario_id = scenario_id_of(db_fp, gamma)
        key = ("scenario", db_fp, gamma.fingerprint())
        cached = self._circuits.get(key)
        if cached is not None:
            with self._lock:
                entry = self._installed.get(scenario_id)
                if entry is None:
                    entry = _Installed(db_fp, gamma)
                    self._installed[scenario_id] = entry
                entry.cache_keys.add(key)
            self._installs.inc()
            return scenario_id, cached
        scenario = ConditionedScenario.compile(self.pdb, gamma)
        with self._lock:
            entry = self._installed.get(scenario_id)
            if entry is None:
                entry = _Installed(db_fp, gamma)
                self._installed[scenario_id] = entry
            entry.cache_keys.add(key)
        self._circuits.put(key, scenario)
        self._installs.inc()
        return scenario_id, scenario

    def register(
        self,
        constraints: Union[ConstraintSet, str, Iterable[Union[str, Constraint]]],
    ) -> str:
        """Record a scenario id without compiling its circuit.

        The server's front door registers every scenario its evaluator
        installed — in processes mode the compile lives on the scenario's
        ring-owner worker — and needs the id table for ``constraints_of``
        (shipping specs with routed queries), ``/healthz`` occupancy and
        idempotent drops. Only a newly recorded id counts as an install:
        an id :meth:`install` already recorded was counted there.
        """
        gamma = (
            constraints
            if isinstance(constraints, ConstraintSet)
            else ConstraintSet.parse(constraints)
        )
        db_fp = self.pdb.tid.fingerprint()
        scenario_id = scenario_id_of(db_fp, gamma)
        with self._lock:
            recorded = scenario_id not in self._installed
            if recorded:
                self._installed[scenario_id] = _Installed(db_fp, gamma)
        if recorded:
            self._installs.inc()
        return scenario_id

    def drop(self, scenario_id: str) -> bool:
        """Uninstall a scenario and release its cached circuits.

        Returns False when the id was never installed (drops are
        idempotent — a re-routed DELETE must not error).
        """
        with self._lock:
            entry = self._installed.pop(scenario_id, None)
        if entry is None:
            return False
        for key in entry.cache_keys:
            self._circuits.pop(key)
        self._drops.inc()
        return True

    def clear(self) -> None:
        """Drop every scenario (server shutdown)."""
        with self._lock:
            self._installed.clear()
        self._circuits.clear()

    # -- resolution ------------------------------------------------------------

    def resolve(
        self,
        scenario_id: str,
        *,
        specs: Optional[Iterable[str]] = None,
    ) -> ConditionedScenario:
        """The compiled scenario behind an id, recompiling if evicted.

        *specs* is the install-on-miss path used by worker processes: a
        query message carries the full constraint spec list, so a worker
        that never saw the install (or was restarted) conditions
        transparently — provided the id still matches the current database
        contents. Raises :class:`UnknownScenarioError` for an unknown id
        without specs, :class:`StaleScenarioError` when the database has
        changed since install.
        """
        with self._lock:
            entry = self._installed.get(scenario_id)
        db_fp = self.pdb.tid.fingerprint()
        if entry is None:
            if specs is None:
                raise UnknownScenarioError(scenario_id)
            gamma = ConstraintSet.parse(specs)
            if scenario_id_of(db_fp, gamma) != scenario_id:
                self._stale.inc()
                raise StaleScenarioError(
                    f"scenario {scenario_id} was installed against different "
                    "database contents; re-install the constraints"
                )
            installed_id, scenario = self.install(gamma)
            assert installed_id == scenario_id
            return scenario
        if entry.db_fingerprint != db_fp:
            self._stale.inc()
            raise StaleScenarioError(
                f"scenario {scenario_id} is stale: the database changed "
                "since the constraints were installed; re-install them"
            )
        key = ("scenario", db_fp, entry.constraints.fingerprint())
        scenario = self._circuits.get(key)
        if scenario is None:
            scenario = ConditionedScenario.compile(self.pdb, entry.constraints)
            self._circuits.put(key, scenario)
            self._recompiles.inc()
        return scenario

    def derived(
        self,
        scenario_id: str,
        force: Mapping[Union[str, Fact], bool],
        *,
        specs: Optional[Iterable[str]] = None,
    ) -> ConditionedScenario:
        """A what-if derivation of an installed scenario, memoized.

        The cofactor itself is cheap (that is the point of
        :meth:`~repro.condition.core.ConditionedScenario.whatif`), but a
        repeated what-if re-uses the derived scenario's count cache and
        compiled circuit, so derivations are cached under the base
        scenario's id plus a canonical force fingerprint.
        """
        base = self.resolve(scenario_id, specs=specs)
        if not force:
            return base
        force_fp = digest(
            ["force"]
            + [
                f"{spec}={int(bool(value))}"
                for spec, value in sorted(
                    ((str(s), v) for s, v in force.items()), key=lambda kv: kv[0]
                )
            ]
        )
        key = ("derived", scenario_id, force_fp)
        cached = self._circuits.get(key)
        if cached is not None:
            return cached
        derived = base.whatif(force)
        with self._lock:
            entry = self._installed.get(scenario_id)
            if entry is not None:
                entry.cache_keys.add(key)
        self._circuits.put(key, derived)
        return derived

    # -- introspection ---------------------------------------------------------

    def scenario_count(self) -> int:
        """Installed scenario ids (survives circuit eviction)."""
        with self._lock:
            return len(self._installed)

    def cached_count(self) -> int:
        """Compiled circuits currently resident (base + derived)."""
        return len(self._circuits)

    def scenario_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._installed)

    def constraints_of(self, scenario_id: str) -> ConstraintSet:
        """The installed constraint set (for re-routing query messages)."""
        with self._lock:
            entry = self._installed.get(scenario_id)
        if entry is None:
            raise UnknownScenarioError(scenario_id)
        return entry.constraints

    def publish_metrics(self) -> None:
        """Refresh the occupancy gauges and eviction counter (at scrape time)."""
        self._registry.gauge(
            "scenarios_installed", "Installed scenario ids"
        ).set(self.scenario_count())
        self._registry.gauge(
            "scenario_circuits_cached", "Compiled conditioned circuits resident"
        ).set(self.cached_count())
        evictions = self._circuits.stats.evictions
        delta = evictions - self._published_evictions
        if delta > 0:
            self._evictions.inc(delta)
            self._published_evictions = evictions
