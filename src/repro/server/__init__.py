"""Serving layer: a query server over one shared engine session.

Four cooperating pieces:

* :mod:`repro.server.protocol` — the NDJSON wire format and validation;
* :mod:`repro.server.ladder` — deadline-driven method degradation
  (exact → dissociation bounds → seeded sampling), every answer naming
  its rung and guarantee;
* :mod:`repro.server.service` — the asyncio server with request
  coalescing, admission control and graceful drain, plus the HTTP shim
  (``POST /query``, ``POST /condition``, ``DELETE /condition/<id>``,
  ``GET /healthz``, ``GET /metrics``); its ``evaluate`` function shapes
  every answer in both serving modes;
* :mod:`repro.server.pool` — the multi-process evaluator: shared-memory
  columnar shards published once, N spawned workers attached read-only,
  one duplex pipe each, consistent-hash routing for cache affinity, and
  crashes seen on process sentinels, requeued or shed, optionally
  respawned.

Conditioning rides the same protocol: ``op: condition`` installs a
constraint set as a server-side scenario (compiled once), queries naming
a ``scenario`` answer ``P(Q | Γ)``, and ``force`` derives what-ifs by
pinning the forced facts — see :mod:`repro.condition`.

See docs/api.md ("Serving", "Conditioning & what-if") for the protocol
and guarantee catalog.
"""

from .client import ServerClient, http_get, http_request
from .ladder import CostPredictor, MethodLadder, RungAnswer
from .pool import WorkerPool
from .protocol import (
    ConditionRequest,
    DropConditionRequest,
    ErrorCode,
    ProtocolError,
    QueryRequest,
    Request,
    decode_request,
    encode,
    error_response,
)
from .service import QueryServer, ServerConfig, ServerThread

__all__ = [
    "ConditionRequest",
    "CostPredictor",
    "DropConditionRequest",
    "ErrorCode",
    "MethodLadder",
    "ProtocolError",
    "QueryRequest",
    "QueryServer",
    "Request",
    "RungAnswer",
    "ServerClient",
    "ServerConfig",
    "ServerThread",
    "WorkerPool",
    "decode_request",
    "encode",
    "error_response",
    "http_get",
    "http_request",
]
