"""prodb-flow: whole-program concurrency analysis for the prodb engine.

Where :mod:`prodb_lint` checks one file at a time with syntactic rules,
this package builds a *program model* — every module under the scanned
roots, a call graph, per-class attribute types, every lock construction
site — and runs three interprocedural verification passes over it:

* **lockset** (:mod:`prodb_flow.locks`, PF1xx) — walks every reachable
  acquisition path (``with`` nesting plus helper indirection through the
  call graph) and proves it rank-monotonic against the ``RANK_*`` order
  declared in ``repro.sanitize``; flags raw ``threading`` locks that
  escape the rank system and ``await`` while a lock is held;
* **event-loop confinement** (:mod:`prodb_flow.loops`, PF2xx) — taints
  loop-owned state (``asyncio.StreamWriter`` / ``Task`` / ``Future``
  typed attributes, containers of such, ``# prodb-lint: loop-owned``
  annotations), classifies every function as loop- and/or
  thread-context by propagating from entry points (``async def``,
  ``Thread(target=...)``, ``run_in_executor``), and reports touches of
  loop-owned state from thread context that are not routed through
  ``call_soon_threadsafe`` / ``run_coroutine_threadsafe``;
* **shm/pickle boundary** (:mod:`prodb_flow.shmcheck`, PF3xx) — taints
  the results of ``attach()`` (read-only shared-memory shards) and
  reports mutating operations reachable from them, and checks that
  objects crossing the worker-pool pickle boundary (queue ``put``, pipe
  ``send``, ``Process`` args/target) come from the picklable allowlist.

Findings carry related source locations (both ends of an inversion, the
thread-entry witness of a confinement breach) and can be suppressed with
the shared pragma grammar (``# prodb-lint: disable=PF101 -- why``);
a PF suppression *without* a ``--`` justification is itself a finding
(PF000). Output: text, SARIF 2.1.0 (``--sarif``), and a DOT dump of the
observed lock-order graph (``--emit-lockgraph``).

Run it as ``PYTHONPATH=tools python -m prodb_flow src``.
"""

from __future__ import annotations

#: The rule catalog. Stable ids; docs/dev.md mirrors this table.
RULES: dict[str, str] = {
    "PF000": "PF-rule suppression without a -- justification",
    "PF101": "lock-order inversion: acquisition rank does not increase",
    "PF102": "raw threading lock escapes the rank system",
    "PF103": "await while holding a lock",
    "PF104": "RankedLock rank not statically resolvable",
    "PF201": "loop-owned state touched from thread context",
    "PF202": "loop-owned object passed into a thread entry point",
    "PF301": "mutation of data reachable from attached shm shards",
    "PF302": "unpicklable object crosses the worker pickle boundary",
}

from .model import Program, build_program  # noqa: E402
from .report import FlowFinding  # noqa: E402

__all__ = ["FlowFinding", "Program", "RULES", "analyze", "build_program"]


def analyze(program: "Program") -> list["FlowFinding"]:
    """Run all three passes over *program*; returns sorted findings."""
    from .locks import LocksetPass
    from .loops import ConfinementPass
    from .shmcheck import BoundaryPass

    findings: list[FlowFinding] = []
    findings.extend(LocksetPass(program).run())
    findings.extend(ConfinementPass(program).run())
    findings.extend(BoundaryPass(program).run())
    findings.extend(program.pragma_findings())
    deduped = {
        (f.code, f.path, f.line, f.col, f.message): f for f in findings
    }
    return sorted(
        deduped.values(), key=lambda f: (f.path, f.line, f.col, f.code)
    )
