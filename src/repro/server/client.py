"""A small synchronous client for the NDJSON protocol.

Used by tests, the benchmark load generator and the CI smoke script; it
is also a reference implementation for anyone speaking the protocol from
another language: open a TCP connection, write one JSON object per line,
read one JSON object per line back, in order.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

__all__ = ["ServerClient", "http_get", "http_request"]


class ServerClient:
    """One persistent NDJSON connection to a :class:`~repro.server.QueryServer`.

    Not thread-safe; use one client per thread (responses come back in
    request order on the shared socket).
    """

    def __init__(self, host: str, port: int, timeout_s: float = 60.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._reader = self._sock.makefile("r", encoding="utf-8")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw request object, return the decoded response."""
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        self._sock.sendall(line.encode())
        response = self._reader.readline()
        if not response:
            raise ConnectionError("server closed the connection")
        decoded = json.loads(response)
        if not isinstance(decoded, dict):
            raise ValueError(f"malformed response: {response!r}")
        return decoded

    def query(
        self,
        query: str,
        *,
        method: str = "ladder",
        deadline_ms: Optional[float] = None,
        timeout_ms: Optional[float] = None,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        id: Optional[str] = None,
        scenario: Optional[str] = None,
        force: Optional[Mapping[str, bool]] = None,
    ) -> Dict[str, Any]:
        """Evaluate one Boolean query; keyword args mirror the protocol.

        Pass ``scenario`` (an id returned by :meth:`condition`) to answer
        ``P(Q | Γ)`` through the installed scenario, and ``force`` (fact
        spec → bool) for a what-if derivation of it.
        """
        payload: Dict[str, Any] = {"query": query, "method": method}
        for name, value in (
            ("deadline_ms", deadline_ms),
            ("timeout_ms", timeout_ms),
            ("epsilon", epsilon),
            ("delta", delta),
            ("id", id),
            ("scenario", scenario),
            ("force", dict(force) if force is not None else None),
        ):
            if value is not None:
                payload[name] = value
        return self.request(payload)

    def condition(
        self,
        constraints: Union[str, Iterable[str]],
        *,
        id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Install a constraint set; the response carries its scenario id.

        *constraints* is a list of spec strings (``"+R(1)"``, ``"-S(2,3)"``,
        ``"!Q"``, or a required Boolean query) or one ``;``-separated
        string. Idempotent: same constraints + same database → same id.
        """
        specs = (
            constraints if isinstance(constraints, str) else list(constraints)
        )
        payload: Dict[str, Any] = {"op": "condition", "constraints": specs}
        if id is not None:
            payload["id"] = id
        return self.request(payload)

    def drop_condition(
        self, scenario: str, *, id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Uninstall a scenario everywhere (idempotent)."""
        payload: Dict[str, Any] = {"op": "drop_condition", "scenario": scenario}
        if id is not None:
            payload["id"] = id
        return self.request(payload)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    timeout_s: float = 10.0,
) -> Tuple[int, str]:
    """One HTTP-shim request; returns ``(status, body)`` without raising.

    Covers the REST face of the protocol: ``POST /condition``,
    ``DELETE /condition/<id>``, ``POST /query``, plus the GET endpoints.
    """
    payload = (
        json.dumps(body, separators=(",", ":")).encode() if body is not None else b""
    )
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    )
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(head.encode("latin-1") + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks).decode("utf-8", errors="replace")
    headers, _, reply = raw.partition("\r\n\r\n")
    try:
        status = int(headers.split(" ", 2)[1])
    except (IndexError, ValueError):
        raise ConnectionError(f"{method} {path}: malformed reply {headers!r}") from None
    return status, reply


def http_get(host: str, port: int, path: str, timeout_s: float = 10.0) -> str:
    """Fetch one HTTP-shim endpoint (``/healthz``, ``/metrics``); return the body."""
    status, body = http_request(host, port, "GET", path, timeout_s=timeout_s)
    if status != 200:
        raise ConnectionError(f"GET {path} failed: HTTP {status}")
    return body
