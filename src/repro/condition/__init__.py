"""Conditioning probabilistic databases: ``P(Q | Γ)`` and what-if analysis.

The engine answers ``P(Q)``; this package *maintains* a database under a
constraint set Γ in the sense of Koch–Olteanu ("Conditioning Probabilistic
Databases"): compile Γ once into an interned-kernel circuit, then serve
posteriors, per-fact marginals, top-k most probable worlds and incremental
what-if scenarios against it.

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
