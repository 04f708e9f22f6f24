"""Shared-memory write-path and worker pickle-boundary verification.

**PF301 — shm read-only discipline.** ``relational.shm.attach`` maps a
publisher's segments as read-only numpy views; a mutation through them
would corrupt every sibling worker (the ``writeable=False`` flag catches
stores at runtime — this pass proves their absence statically, including
on paths tests never execute). Taint starts at any call whose resolved
return type (or constructed class) is ``AttachedShards`` and propagates
through attribute loads, subscripts and aliasing assignments — but *not*
through call results, so ``shards.to_tid()`` (which decodes into a fresh
row-level database) starts clean. A tainted value passed as an argument
re-runs the check inside the callee with that parameter tainted
(``seed_scan_cache(db, shards.columnar)`` is verified on the far side).
Flagged mutations: subscript/augmented stores, mutating ndarray methods
(``fill``/``sort``/``resize``/…), ``np.copyto``/``np.put``/``np.place``
with a tainted destination, and ``Relation.add``/``replace``/
``set_fact`` on tainted receivers.

**PF302 — the pickle boundary.** Everything crossing to a worker process
(multiprocessing queue ``put``, ``send`` on a receiver named like a
connection or pipe, ``Process(target=..., args=...)``) must
come from the picklable allowlist: literals, dataclass records, plain
calls. Flagged: lambdas, functions nested in the sending function,
``self``, and values whose inferred type is a known-unpicklable runtime
object (sessions, ladders, executors, locks, registries, stream
writers). ``Process`` targets must be module-level functions — a bound
method would drag its whole ``self`` across the boundary.
"""

from __future__ import annotations

import ast
from typing import Optional

from .model import FunctionInfo, Program
from .report import FlowFinding

#: ndarray / Relation methods that mutate their receiver in place.
MUTATING_METHODS = {
    "fill", "sort", "resize", "put", "partition", "setfield", "itemset",
    "byteswap", "add", "replace", "set_fact", "clear", "update",
    "setdefault", "pop", "append", "extend",
}

#: numpy module-level functions whose first argument is mutated.
MUTATING_NUMPY = {"copyto", "put", "place", "putmask", "fill_diagonal"}

#: Types that must never cross the worker pickle boundary.
UNPICKLABLE_LEAVES = {
    "EngineSession", "MethodLadder", "QueryServer", "ServerThread",
    "WorkerPool", "ThreadPoolExecutor", "ProcessPoolExecutor",
    "RankedLock", "MetricsRegistry", "LRUCache", "StreamWriter",
    "StreamReader", "Thread", "AbstractEventLoop", "Future", "Task",
    "Lock", "RLock", "Condition",
}

_MAX_DEPTH = 3


class BoundaryPass:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.findings: list[FlowFinding] = []
        self._reported: set[tuple] = set()
        self._visited: set[tuple[str, frozenset]] = set()

    def run(self) -> list[FlowFinding]:
        for fn in self.program.all_functions():
            self._check_function(fn, tainted=frozenset(), depth=0)
            self._check_pickle_sites(fn)
        return self.findings

    def _emit(self, code: str, fn: FunctionInfo, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        dedupe = (code, fn.module.relpath, line, message)
        if dedupe in self._reported:
            return
        self._reported.add(dedupe)
        if fn.module.pragmas.is_disabled(
            code, line, getattr(node, "end_lineno", None)
        ):
            return
        self.findings.append(
            FlowFinding(code, fn.module.relpath, line, col, message)
        )

    # -- PF301: attached-shard mutation -----------------------------------------

    def _returns_attached(self, call: ast.Call, fn: FunctionInfo) -> bool:
        dotted = self.program.canonical(
            self.program._dotted_of(call.func, fn.module)
        )
        if dotted is not None and dotted.split(".")[-1] == "AttachedShards":
            return True
        callee = self.program.resolve_call(call, fn)
        if callee is None:
            return False
        returns = self.program.resolve_annotation(
            getattr(callee.node, "returns", None), callee.module
        )
        return (
            returns is not None
            and returns.split(".")[-1] == "AttachedShards"
        )

    def _expr_tainted(
        self, expr: ast.expr, tainted: frozenset, fn: FunctionInfo
    ) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self._expr_tainted(expr.value, tainted, fn)
        if isinstance(expr, ast.IfExp):
            return self._expr_tainted(
                expr.body, tainted, fn
            ) or self._expr_tainted(expr.orelse, tainted, fn)
        if isinstance(expr, ast.Call):
            # Call results are untainted (to_tid() decodes a fresh copy) —
            # except calls that *produce* the attached shards themselves.
            return self._returns_attached(expr, fn)
        return False

    def _check_function(
        self, fn: FunctionInfo, tainted: frozenset, depth: int
    ) -> None:
        key = (fn.qualname, tainted)
        if key in self._visited or depth > _MAX_DEPTH:
            return
        self._visited.add(key)
        node = fn.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        live = set(tainted)
        # Two passes: taint is flow-insensitive within the function, which
        # over-approximates aliases introduced before their source binds.
        for _ in range(2):
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    value = stmt.value
                    seeds = isinstance(value, ast.Call) and self._returns_attached(
                        value, fn
                    )
                    if isinstance(target, ast.Name) and (
                        seeds or self._expr_tainted(value, frozenset(live), fn)
                    ):
                        live.add(target.id)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if self._expr_tainted(stmt.iter, frozenset(live), fn):
                        for name_node in ast.walk(stmt.target):
                            if isinstance(name_node, ast.Name):
                                live.add(name_node.id)
        taint = frozenset(live)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(
                        target, (ast.Subscript, ast.Attribute)
                    ) and self._expr_tainted(target.value, taint, fn):
                        self._emit(
                            "PF301", fn, target,
                            "store into data reachable from attached shm "
                            "shards; attached views are read-only for every "
                            "worker",
                        )
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(
                    stmt.target, (ast.Subscript, ast.Attribute, ast.Name)
                ) and self._expr_tainted(stmt.target, taint, fn):
                    self._emit(
                        "PF301", fn, stmt.target,
                        "augmented assignment mutates data reachable from "
                        "attached shm shards",
                    )
            elif isinstance(stmt, ast.Call):
                self._check_mutating_call(stmt, fn, taint)
                self._propagate_into_callee(stmt, fn, taint, depth)

    def _check_mutating_call(
        self, call: ast.Call, fn: FunctionInfo, taint: frozenset
    ) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATING_METHODS and self._expr_tainted(
                func.value, taint, fn
            ):
                self._emit(
                    "PF301", fn, call,
                    f"mutating call .{func.attr}() on data reachable from "
                    "attached shm shards",
                )
                return
            dotted = self.program._dotted_of(func, fn.module) or ""
            leaf = dotted.split(".")[-1]
            root = dotted.split(".")[0]
            if (
                leaf in MUTATING_NUMPY
                and root in ("numpy", "np")
                and call.args
                and self._expr_tainted(call.args[0], taint, fn)
            ):
                self._emit(
                    "PF301", fn, call,
                    f"numpy.{leaf}() writes into data reachable from "
                    "attached shm shards",
                )

    def _propagate_into_callee(
        self, call: ast.Call, fn: FunctionInfo, taint: frozenset, depth: int
    ) -> None:
        tainted_positions = [
            index
            for index, arg in enumerate(call.args)
            if self._expr_tainted(arg, taint, fn)
        ]
        if not tainted_positions:
            return
        callee = self.program.resolve_call(call, fn)
        if callee is None:
            return
        callee_node = callee.node
        assert isinstance(callee_node, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = [arg.arg for arg in callee_node.args.args]
        if callee.cls is not None and params and params[0] == "self":
            params = params[1:]
        callee_taint = frozenset(
            params[index] for index in tainted_positions if index < len(params)
        )
        if callee_taint:
            self._check_function(callee, callee_taint, depth + 1)

    # -- PF302: the pickle boundary ---------------------------------------------

    def _check_pickle_sites(self, fn: FunctionInfo) -> None:
        module = fn.module
        nested = {
            sub.name
            for sub in ast.walk(fn.node)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and sub is not fn.node
        }
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            channel = (
                _receiver_text(func.value).lower()
                if isinstance(func, ast.Attribute)
                else ""
            )
            if isinstance(func, ast.Attribute) and (
                (func.attr == "put" and "queue" in channel)
                or (func.attr == "send" and ("conn" in channel or "pipe" in channel))
            ):
                site = "queue put" if func.attr == "put" else "pipe send"
                for arg in node.args[:1]:
                    self._check_payload(arg, fn, nested, site=site)
            elif (
                isinstance(func, ast.Attribute) and func.attr == "Process"
            ) or (
                self.program.canonical(
                    self.program._dotted_of(func, module)
                )
                == "multiprocessing.Process"
            ):
                self._check_process(node, fn, nested)

    def _check_process(
        self, call: ast.Call, fn: FunctionInfo, nested: set[str]
    ) -> None:
        for kw in call.keywords:
            if kw.arg == "target":
                target = self.program.resolve_callable(kw.value, fn)
                if isinstance(kw.value, ast.Lambda):
                    self._emit(
                        "PF302", fn, kw.value,
                        "Process target is a lambda; workers need a "
                        "module-level function",
                    )
                elif target is not None and target.cls is not None:
                    self._emit(
                        "PF302", fn, kw.value,
                        f"Process target {target.qualname} is a bound "
                        "method; pickling it drags the whole instance "
                        "across the worker boundary",
                    )
                elif (
                    isinstance(kw.value, ast.Name) and kw.value.id in nested
                ):
                    self._emit(
                        "PF302", fn, kw.value,
                        "Process target is a nested function; spawn "
                        "requires a module-level target",
                    )
            elif kw.arg == "args" and isinstance(
                kw.value, (ast.Tuple, ast.List)
            ):
                for element in kw.value.elts:
                    self._check_payload(
                        element, fn, nested, site="Process args"
                    )

    def _check_payload(
        self,
        expr: ast.expr,
        fn: FunctionInfo,
        nested: set[str],
        site: str,
        hop: int = 0,
    ) -> None:
        if isinstance(expr, ast.Dict):
            for part in (*expr.keys, *expr.values):
                if part is not None:
                    self._check_payload(part, fn, nested, site, hop)
            return
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                self._check_payload(element, fn, nested, site, hop)
            return
        if isinstance(expr, ast.IfExp):
            self._check_payload(expr.body, fn, nested, site, hop)
            self._check_payload(expr.orelse, fn, nested, site, hop)
            return
        if isinstance(expr, ast.Constant):
            return
        if isinstance(expr, ast.Lambda):
            self._emit(
                "PF302", fn, expr,
                f"lambda crosses the worker pickle boundary ({site})",
            )
            return
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                self._emit(
                    "PF302", fn, expr,
                    f"'self' crosses the worker pickle boundary ({site})",
                )
                return
            if expr.id in nested:
                self._emit(
                    "PF302", fn, expr,
                    f"nested function {expr.id!r} crosses the worker "
                    f"pickle boundary ({site})",
                )
                return
            if hop == 0:
                source = self._sole_assignment(expr.id, fn)
                if source is not None:
                    self._check_payload(source, fn, nested, site, hop=1)
                    return
        inferred = self.program.infer_type(expr, fn)
        leaf = (inferred or "").split(".")[-1]
        if leaf in UNPICKLABLE_LEAVES:
            self._emit(
                "PF302", fn, expr,
                f"value of type {leaf} crosses the worker pickle boundary "
                f"({site}); only plain data may cross — see the allowlist "
                "in tools/prodb_flow/shmcheck.py",
            )

    def _sole_assignment(
        self, name: str, fn: FunctionInfo
    ) -> Optional[ast.expr]:
        found: Optional[ast.expr] = None
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
            ):
                if found is not None:
                    return None  # re-bound; give up
                found = node.value
        return found


def _receiver_text(expr: ast.expr) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return f"{_receiver_text(expr.value)}.{expr.attr}"
    return ""
