"""Conditioning probabilistic databases: ``P(Q | Γ)`` and what-if analysis.

The engine answers ``P(Q)``; this package *maintains* a database under a
constraint set Γ in the sense of Koch–Olteanu ("Conditioning Probabilistic
Databases"): Γ's fact literals and every what-if force pin their facts to
probability 1/0, the query constraints are compiled once into a decision
circuit, and posteriors, per-fact marginals, top-k most probable worlds and
incremental what-if scenarios evaluate that circuit under the pins.

* :mod:`repro.condition.core` — the constraint grammar and the
  compile-once :class:`~repro.condition.core.ConditionedScenario`;
* :mod:`repro.condition.session` — the server-side scenario registry with
  content-addressed ids and LRU-bounded circuit memory.
"""

from .core import (
    ConditionedAnswer,
    ConditionedScenario,
    Constraint,
    ConstraintSet,
    InconsistentConstraints,
    WorldCandidate,
    condition_database,
)
from .session import (
    ScenarioManager,
    StaleScenarioError,
    UnknownScenarioError,
    scenario_id_of,
)

__all__ = [
    "ConditionedAnswer",
    "ConditionedScenario",
    "Constraint",
    "ConstraintSet",
    "InconsistentConstraints",
    "ScenarioManager",
    "StaleScenarioError",
    "UnknownScenarioError",
    "WorldCandidate",
    "condition_database",
    "scenario_id_of",
]
