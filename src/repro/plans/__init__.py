"""Extensional plans: safe plans, dissociations, Theorem 6.1 bounds."""

from .plan import (
    JoinNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    execute,
    execute_boolean,
    plan_atoms,
    plan_variables,
    project_boolean,
)
from .safe_plan import CostModel, UnsafePlanError, safe_plan, try_safe_plan
from .vectorized import execute_boolean_columnar, execute_columnar
from .dissociation import Dissociation, all_dissociations, minimal_dissociations
from .bounds import (
    BoundsResult,
    extensional_bounds,
    oblivious_database,
    plan_lower_bound,
    plan_upper_bound,
)

__all__ = [
    "JoinNode",
    "PlanNode",
    "ProjectNode",
    "ScanNode",
    "execute",
    "execute_boolean",
    "plan_atoms",
    "plan_variables",
    "project_boolean",
    "CostModel",
    "UnsafePlanError",
    "safe_plan",
    "try_safe_plan",
    "execute_boolean_columnar",
    "execute_columnar",
    "Dissociation",
    "all_dissociations",
    "minimal_dissociations",
    "BoundsResult",
    "extensional_bounds",
    "oblivious_database",
    "plan_lower_bound",
    "plan_upper_bound",
]
