"""The wire protocol: newline-delimited JSON requests and responses.

One request per line, one response line per request, always in order.
A request is a JSON object::

    {"query": "R(x), S(x,y)",        # required: Boolean query text
     "method": "ladder",             # optional: "ladder" (default) or any
                                     #   engine route ("lifted", "dpll", ...)
     "deadline_ms": 50,              # optional: degradation deadline
     "timeout_ms": 30000,            # optional: hard per-request timeout
     "epsilon": 0.2, "delta": 0.05,  # optional: error budget for degraded rungs
     "id": "req-17"}                 # optional: echoed back verbatim

Keys the server does not know are ignored.

A successful response names the ladder rung that answered and the
guarantee that rung carries::

    {"ok": true, "id": "req-17", "probability": 0.8, "rung": "exact",
     "guarantee": "exact probability (no approximation)", "exact": true,
     "method": "lifted", "detail": "...", "coalesced": false,
     "elapsed_ms": 1.93}

Degraded answers add rung-specific fields: ``bounds`` rungs carry
``{"lower": ..., "upper": ...}``; ``sampled`` rungs carry
``{"epsilon": ..., "delta": ..., "samples": ...}``.

Errors are ``{"ok": false, "error": <code>, "message": ...}`` with codes
from :class:`ErrorCode` — notably ``overloaded`` (admission control shed
the request) and ``shutting_down`` (the server is draining).

**Conditioning.** A request object may instead carry an ``op``:

* ``{"op": "condition", "constraints": ["+R(1)", "S(x,y), T(y)"]}``
  installs a constraint set against the current database contents and
  returns ``{"ok": true, "scenario": "s...", ...}`` — see
  :mod:`repro.condition.session` for the id scheme;
* ``{"op": "drop_condition", "scenario": "s..."}`` uninstalls it;
* a query request may add ``"scenario": "s..."`` (answer ``P(Q | Γ)``
  through the installed scenario's compiled circuit) and ``"force":
  {"R(1)": true}`` (a what-if derivation of that scenario).

Scenario errors use the codes ``unknown_scenario`` (HTTP 404),
``stale_scenario`` (409 — the database changed since install) and
``unsatisfiable`` (400 — ``P(Γ) = 0``).

The HTTP shim speaks the same JSON: ``POST /query`` takes one request
object as the body and returns one response object; ``POST /condition``
and ``DELETE /condition/<id>`` map onto the two ops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple, Union

__all__ = [
    "ConditionRequest",
    "DropConditionRequest",
    "ErrorCode",
    "ProtocolError",
    "QueryRequest",
    "Request",
    "decode_request",
    "encode",
    "error_response",
]

#: Engine methods a request may name instead of the ladder.
_DIRECT_METHODS = (
    "auto",
    "lifted",
    "safe-plan",
    "dpll",
    "karp-luby",
    "monte-carlo",
    "brute-force",
)

class ErrorCode(Enum):
    """Machine-readable error categories."""

    BAD_REQUEST = "bad_request"
    OVERLOADED = "overloaded"
    SHUTTING_DOWN = "shutting_down"
    TIMEOUT = "timeout"
    INTERNAL = "internal"
    UNKNOWN_SCENARIO = "unknown_scenario"
    STALE_SCENARIO = "stale_scenario"
    UNSATISFIABLE = "unsatisfiable"


class ProtocolError(ValueError):
    """A request that cannot be admitted; carries the response code."""

    def __init__(self, code: ErrorCode, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class QueryRequest:
    """One decoded, validated request."""

    query: str
    method: str = "ladder"
    deadline_ms: Optional[float] = None
    timeout_ms: Optional[float] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    id: Optional[str] = field(default=None)
    #: Answer ``P(Q | Γ)`` through this installed scenario id.
    scenario: Optional[str] = None
    #: What-if evidence applied to the scenario: canonical sorted
    #: ``(fact spec, forced value)`` pairs (hashable for coalescing).
    force: Optional[Tuple[Tuple[str, bool], ...]] = None

    def coalesce_key(self, db_fingerprint: str) -> tuple:
        """The identity under which concurrent requests share one answer.

        ``(db_fingerprint, query, method)`` per the serving design, refined
        by the error budget so a caller asking for a tighter ε/δ never
        receives a looser answer, and by the scenario identity (conditioned
        and unconditioned answers never coalesce).
        """
        return (
            db_fingerprint,
            " ".join(self.query.split()),
            self.method,
            self.epsilon,
            self.delta,
            self.scenario,
            self.force,
        )


@dataclass(frozen=True)
class ConditionRequest:
    """``op: condition`` — install a constraint set, returning its id."""

    constraints: Tuple[str, ...]
    id: Optional[str] = None


@dataclass(frozen=True)
class DropConditionRequest:
    """``op: drop_condition`` — uninstall a scenario (idempotent)."""

    scenario: str
    id: Optional[str] = None


#: Anything :func:`decode_request` may return.
Request = Union[QueryRequest, ConditionRequest, DropConditionRequest]


def _optional_number(
    payload: Dict[str, Any], name: str, positive: bool = True
) -> Optional[float]:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"field {name!r} must be a number"
        )
    number = float(value)
    if positive and number <= 0:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"field {name!r} must be positive"
        )
    return number


def decode_request(line: str) -> Request:
    """Parse and validate one NDJSON request line.

    Dispatches on ``op``: absent (or ``"query"``) yields a
    :class:`QueryRequest`; ``"condition"`` / ``"drop_condition"`` yield
    the scenario-management requests.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, f"request is not valid JSON: {error}"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "request must be a JSON object"
        )
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, str):
        request_id = str(request_id)
    op = payload.get("op", "query")
    if op == "condition":
        constraints = payload.get("constraints")
        if isinstance(constraints, str):
            constraints = [part for part in constraints.split(";") if part.strip()]
        if (
            not isinstance(constraints, (list, tuple))
            or not constraints
            or not all(isinstance(c, str) and c.strip() for c in constraints)
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                "op 'condition' needs 'constraints': a non-empty list of "
                "constraint spec strings (or one ';'-separated string)",
            )
        return ConditionRequest(tuple(constraints), id=request_id)
    if op == "drop_condition":
        scenario = payload.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                "op 'drop_condition' needs 'scenario': the id to uninstall",
            )
        return DropConditionRequest(scenario, id=request_id)
    if op != "query":
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"unknown op {op!r}; expected 'query', 'condition' or "
            "'drop_condition'",
        )
    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "field 'query' (non-empty string) is required"
        )
    method = payload.get("method", "ladder")
    if method not in ("ladder",) + _DIRECT_METHODS:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST,
            f"unknown method {method!r}; expected 'ladder' or one of "
            + ", ".join(_DIRECT_METHODS),
        )
    delta = _optional_number(payload, "delta")
    if delta is not None and delta >= 1.0:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "field 'delta' must be in (0, 1)"
        )
    scenario = payload.get("scenario")
    if scenario is not None and (not isinstance(scenario, str) or not scenario):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "field 'scenario' must be a scenario id"
        )
    raw_force = payload.get("force")
    force: Optional[Tuple[Tuple[str, bool], ...]] = None
    if raw_force is not None:
        if scenario is None:
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                "field 'force' needs 'scenario': what-if evidence applies "
                "to an installed scenario",
            )
        if (
            not isinstance(raw_force, dict)
            or not raw_force
            or not all(
                isinstance(k, str) and k.strip() and isinstance(v, bool)
                for k, v in raw_force.items()
            )
        ):
            raise ProtocolError(
                ErrorCode.BAD_REQUEST,
                "field 'force' must map fact specs to booleans, "
                'e.g. {"R(1)": true}',
            )
        force = tuple(
            sorted((" ".join(k.split()), v) for k, v in raw_force.items())
        )
    return QueryRequest(
        query=query,
        method=str(method),
        deadline_ms=_optional_number(payload, "deadline_ms"),
        timeout_ms=_optional_number(payload, "timeout_ms"),
        epsilon=_optional_number(payload, "epsilon"),
        delta=delta,
        id=request_id,
        scenario=scenario,
        force=force,
    )


def encode(payload: Dict[str, Any]) -> str:
    """One response object as a single NDJSON line (no trailing newline)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def error_response(
    code: ErrorCode, message: str, request_id: Optional[str] = None
) -> Dict[str, Any]:
    """The uniform error payload."""
    out: Dict[str, Any] = {"ok": False, "error": code.value, "message": message}
    if request_id is not None:
        out["id"] = request_id
    return out
