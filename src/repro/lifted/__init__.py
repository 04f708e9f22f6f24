"""Lifted inference: the paper's rules (7)–(10) and the safety decider."""

from .derive import Derivation, derive
from .engine import LiftedEngine, RuleApplication, lifted_probability, sentence_to_ucq
from .errors import NonLiftableError, UnsupportedQueryError
from .safety import Complexity, SafetyVerdict, cq_is_safe, decide_safety

__all__ = [
    "NonLiftableError",
    "UnsupportedQueryError",
    "Derivation",
    "derive",
    "LiftedEngine",
    "RuleApplication",
    "lifted_probability",
    "sentence_to_ucq",
    "Complexity",
    "SafetyVerdict",
    "cq_is_safe",
    "decide_safety",
]
