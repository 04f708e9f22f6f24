"""The five prodb-lint rules.

Each rule yields ``(code, node, message)`` triples; pragma suppression and
rendering happen in :mod:`prodb_lint.engine`. Rules are deliberately
syntactic approximations — they catch the conventions the engine relies on
without whole-program analysis, and every escape hatch is an explicit,
reviewable pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

Triple = tuple[str, ast.AST, str]

#: Interned BExpr node classes that must not be constructed directly
#: outside the booleans package (PL001).
_BEXPR_CLASSES = frozenset({"BVar", "BNot", "BAnd", "BOr", "BTrue", "BFalse"})

#: Factory spellings suggested by the PL001 message.
_BEXPR_FACTORY = {
    "BVar": "bvar(...)",
    "BNot": "bnot(...)",
    "BAnd": "band(...) or BAnd.of(...)",
    "BOr": "bor(...) or BOr.of(...)",
    "BTrue": "B_TRUE",
    "BFalse": "B_FALSE",
}

#: Methods that mutate a container in place (PL002).
_MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert", "add",
        "update", "setdefault", "pop", "popitem", "popleft", "clear",
        "remove", "discard", "move_to_end",
    }
)

#: Constructor names treated as mutable containers (PL002).
_CONTAINER_CALLS = frozenset(
    {
        "dict", "list", "set", "OrderedDict", "defaultdict", "deque",
        "Counter", "WeakValueDictionary", "WeakKeyDictionary",
    }
)

#: Methods that never go through __init__-style construction windows.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: numpy.random constructors that are fine *when given a seed* (PL004).
_NP_SEEDED_CTORS = frozenset({"default_rng", "RandomState", "Generator", "SeedSequence"})


class Rule:
    """Base: subclasses set ``code``/``name`` and implement the hooks."""

    code = "PL000"
    name = "base"

    def applies(self, relpath: str) -> bool:
        return True

    def check(self, ctx) -> Iterator[Triple]:  # pragma: no cover - interface
        raise NotImplementedError


def _is_mutable_container_value(value: ast.AST) -> bool:
    """Literal / constructor expressions that produce a mutable container."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in _CONTAINER_CALLS:
            return True
        # dataclasses.field(default_factory=dict) and friends
        if name == "field":
            for keyword in value.keywords:
                if keyword.arg == "default_factory":
                    factory = keyword.value
                    factory_name = (
                        factory.id if isinstance(factory, ast.Name) else (
                            factory.attr if isinstance(factory, ast.Attribute) else None
                        )
                    )
                    if factory_name in _CONTAINER_CALLS:
                        return True
    return False


def _is_threading_local_value(value: ast.AST, local_classes: set[str]) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute) and func.attr == "local":
        return True  # threading.local()
    if isinstance(func, ast.Name) and func.id in local_classes:
        return True
    return False


class PL001DirectNodeConstruction(Rule):
    """Direct ``BVar(...)``-style construction outside the booleans package."""

    code = "PL001"
    name = "direct-bexpr-construction"

    def applies(self, relpath: str) -> bool:
        return not relpath.startswith("src/repro/booleans/")

    def check(self, ctx) -> Iterator[Triple]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            if name in _BEXPR_CLASSES:
                yield (
                    self.code,
                    node,
                    f"direct construction of {name}(...) bypasses the kernel "
                    f"factories; use {_BEXPR_FACTORY[name]} from repro.booleans "
                    "(or add '# prodb-lint: allow-construct' if this is a "
                    "deliberate kernel-level test)",
                )


class PL002UnguardedSharedMutation(Rule):
    """Unlocked mutation of shared mutable containers in engine/booleans.

    Tracks two families of shared state: module-level names bound to a
    mutable container at module scope, and ``self.<attr>`` containers bound
    in ``__init__`` (or as dataclass ``field(default_factory=...)``).
    A mutation — subscript store/delete, augmented subscript assignment, or
    an in-place method call like ``update``/``clear`` — must sit inside a
    ``with <something-named-lock>`` block, belong to a
    ``threading.local`` subclass, or carry ``# prodb-lint: lockfree``.
    """

    code = "PL002"
    name = "unguarded-shared-mutation"

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(
            (
                "src/repro/engine/",
                "src/repro/booleans/",
                "src/repro/condition/",
                "src/repro/server/",
                "src/repro/obs/",
                "src/repro/relational/shm.py",
            )
        )

    def check(self, ctx) -> Iterator[Triple]:
        tree = ctx.tree
        local_classes = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(
                (isinstance(base, ast.Attribute) and base.attr == "local")
                or (isinstance(base, ast.Name) and base.id == "local")
                for base in node.bases
            )
        }

        module_containers: set[str] = set()
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_container_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    module_containers.add(target.id)

        # self.<attr> containers, per class.
        class_containers: dict[str, set[str]] = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if cls.name in local_classes:
                continue
            attrs: set[str] = set()
            for stmt in cls.body:  # dataclass field(default_factory=...)
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    if isinstance(stmt.target, ast.Name) and _is_mutable_container_value(stmt.value):
                        attrs.add(stmt.target.id)
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if not _is_mutable_container_value(value):
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
            if attrs:
                class_containers[cls.name] = attrs

        def tracked(base: ast.AST, node: ast.AST) -> str | None:
            """The tracked name a mutation targets, or None."""
            if isinstance(base, ast.Name) and base.id in module_containers:
                return base.id
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
            ):
                for ancestor in ctx.ancestors(node):
                    if isinstance(ancestor, ast.ClassDef):
                        if base.attr in class_containers.get(ancestor.name, ()):
                            return f"self.{base.attr}"
                        return None
            return None

        def guarded(node: ast.AST) -> bool:
            for ancestor in ctx.ancestors(node):
                if isinstance(ancestor, ast.FunctionDef) and ancestor.name in _INIT_METHODS:
                    return True
                if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                    for item in ancestor.items:
                        for sub in ast.walk(item.context_expr):
                            text = None
                            if isinstance(sub, ast.Attribute):
                                text = sub.attr
                            elif isinstance(sub, ast.Name):
                                text = sub.id
                            if text is not None and "lock" in text.lower():
                                return True
            return False

        def emit(node: ast.AST, name: str, what: str) -> Triple:
            return (
                self.code,
                node,
                f"{what} of shared container {name!r} outside a 'with <lock>' "
                "block; guard it, make it threading.local, or annotate "
                "'# prodb-lint: lockfree' with a justifying comment",
            )

        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        name = tracked(target.value, node)
                        if name is not None and not guarded(node):
                            yield emit(node, name, "subscript assignment")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        name = tracked(target.value, node)
                        if name is not None and not guarded(node):
                            yield emit(node, name, "subscript deletion")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                    name = tracked(func.value, node)
                    if name is not None and not guarded(node):
                        yield emit(node, name, f".{func.attr}() call")


class PL003FloatLiteralEquality(Rule):
    """``==`` / ``!=`` against a float literal."""

    code = "PL003"
    name = "float-literal-equality"

    def check(self, ctx) -> Iterator[Triple]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                literal = next(
                    (
                        operand
                        for operand in (left, right)
                        if isinstance(operand, ast.Constant)
                        and type(operand.value) is float
                    ),
                    None,
                )
                if literal is not None:
                    yield (
                        self.code,
                        node,
                        f"exact float comparison against {literal.value!r}; "
                        "use math.isclose(...) for tolerant comparison or "
                        "annotate '# prodb-lint: exact' when exact IEEE "
                        "semantics are intended (e.g. division guards)",
                    )
                    break


class PL004UnseededRandomness(Rule):
    """Unseeded ``random`` / ``numpy.random`` use in reproducibility-critical files."""

    code = "PL004"
    name = "unseeded-randomness"

    _FILES = frozenset({"src/repro/wmc/sampling.py", "src/repro/wmc/karp_luby.py"})

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("benchmarks/") or relpath in self._FILES

    def check(self, ctx) -> Iterator[Triple]:
        random_aliases: set[str] = set()
        numpy_aliases: set[str] = set()
        numpy_random_aliases: set[str] = set()
        from_random: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "random":
                        random_aliases.add(bound)
                    elif alias.name == "numpy":
                        numpy_aliases.add(bound)
                    elif alias.name == "numpy.random":
                        numpy_random_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module in ("random", "numpy.random"):
                    from_random.update(
                        (alias.asname or alias.name) for alias in node.names
                    )

        def has_args(call: ast.Call) -> bool:
            return bool(call.args or call.keywords)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # random.<fn>(...) / rnd.<fn>(...)
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                base = func.value.id
                if base in random_aliases:
                    if func.attr in {"Random", "SystemRandom"}:
                        if func.attr == "Random" and not has_args(node):
                            yield (
                                self.code,
                                node,
                                "random.Random() without a seed is not "
                                "reproducible; pass an explicit seed or rng",
                            )
                    else:
                        yield (
                            self.code,
                            node,
                            f"module-level random.{func.attr}() uses the "
                            "process-global unseeded generator; use a local "
                            "random.Random(seed)",
                        )
                    continue
            # numpy.random.<fn>(...) via np.random.<fn>
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.attr == "random"
                and func.value.value.id in numpy_aliases
            ) or (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in numpy_random_aliases
            ):
                if func.attr in _NP_SEEDED_CTORS:
                    if not has_args(node):
                        yield (
                            self.code,
                            node,
                            f"numpy.random.{func.attr}() without a seed is "
                            "not reproducible; pass an explicit seed",
                        )
                else:
                    yield (
                        self.code,
                        node,
                        f"numpy.random.{func.attr}() uses the global "
                        "unseeded generator; use numpy.random.default_rng(seed)",
                    )
                continue
            # names imported `from random import ...`
            if isinstance(func, ast.Name) and func.id in from_random:
                if func.id in {"Random", *_NP_SEEDED_CTORS}:
                    if not has_args(node):
                        yield (
                            self.code,
                            node,
                            f"{func.id}() without a seed is not reproducible; "
                            "pass an explicit seed",
                        )
                elif func.id != "SystemRandom":
                    yield (
                        self.code,
                        node,
                        f"{func.id}() drawn from the unseeded global "
                        "generator; use a local seeded generator",
                    )


class PL005AllExportsMatchDocs(Rule):
    """Modules documented in docs/api.md must export the documented names."""

    code = "PL005"
    name = "all-exports-match-docs"

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/") and relpath.endswith(".py")

    @staticmethod
    def _module_of(relpath: str) -> str:
        dotted = relpath[len("src/"):-len(".py")].replace("/", ".")
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        return dotted

    def check(self, ctx) -> Iterator[Triple]:
        documented = ctx.project.api_exports().get(self._module_of(ctx.relpath))
        if not documented:
            return
        all_node: ast.AST | None = None
        exported: set[str] = set()
        for node in ast.walk(ctx.tree):
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                target = node.target
            if not (isinstance(target, ast.Name) and target.id == "__all__"):
                continue
            all_node = node
            value = getattr(node, "value", None)
            if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
                exported.update(
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                )
        if all_node is None:
            yield (
                self.code,
                ctx.tree,
                "module is documented in docs/api.md but defines no __all__ "
                f"(documented names: {', '.join(sorted(documented))})",
            )
            return
        missing = sorted(documented - exported)
        if missing:
            yield (
                self.code,
                all_node,
                "__all__ is missing names documented in docs/api.md: "
                + ", ".join(missing),
            )


ALL_RULES: tuple[Rule, ...] = (
    PL001DirectNodeConstruction(),
    PL002UnguardedSharedMutation(),
    PL003FloatLiteralEquality(),
    PL004UnseededRandomness(),
    PL005AllExportsMatchDocs(),
)
