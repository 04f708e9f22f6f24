"""Unit tests for the repo-specific linter in tools/prodb_lint.

Each rule gets a violating fixture and a clean fixture, built as throwaway
mini-projects under tmp_path (a pyproject.toml marks the root so relative
paths like ``src/repro/...`` scope the rules exactly as in the real tree).
"""

from __future__ import annotations

from pathlib import Path

from prodb_lint import lint_paths
from prodb_lint.cli import main
from prodb_lint.pragmas import parse_pragmas

PYPROJECT = '[project]\nname = "fixture"\n'


def make_project(tmp_path: Path, files: dict[str, str], api_md: str = "") -> Path:
    (tmp_path / "pyproject.toml").write_text(PYPROJECT)
    if api_md:
        (tmp_path / "docs").mkdir(exist_ok=True)
        (tmp_path / "docs" / "api.md").write_text(api_md)
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return tmp_path


def lint(root: Path, *paths: str, select: set[str] | None = None):
    return lint_paths(
        [str(root / p) for p in paths], root=str(root), select=select
    )


def codes(findings) -> list[str]:
    return [f.code for f in findings]


# -- PL001: direct BExpr construction ---------------------------------------


def test_pl001_flags_direct_construction(tmp_path):
    root = make_project(
        tmp_path,
        {"src/repro/mln/x.py": "from repro.booleans.expr import BVar\nnode = BVar(3)\n"},
    )
    findings = lint(root, "src", select={"PL001"})
    assert codes(findings) == ["PL001"]
    assert findings[0].line == 2
    assert "bvar(...)" in findings[0].message


def test_pl001_flags_attribute_form(tmp_path):
    root = make_project(
        tmp_path,
        {"src/repro/mln/x.py": "from repro.booleans import expr\nn = expr.BAnd((a, b))\n"},
    )
    assert codes(lint(root, "src", select={"PL001"})) == ["PL001"]


def test_pl001_allows_factories_and_booleans_package(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/mln/x.py": "from repro.booleans.expr import bvar\nnode = bvar(3)\n",
            # Inside the booleans package the classes construct themselves.
            "src/repro/booleans/expr.py": "class BVar:\n    pass\nnode = BVar(3)\n",
        },
    )
    assert lint(root, "src", select={"PL001"}) == []


def test_pl001_pragma_alias(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/mln/x.py": (
                "from repro.booleans.expr import BVar\n"
                "node = BVar(3)  # prodb-lint: allow-construct\n"
            )
        },
    )
    assert lint(root, "src", select={"PL001"}) == []


# -- PL002: unguarded shared mutation ----------------------------------------


def test_pl002_flags_unlocked_module_container(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/engine/x.py": (
                "CACHE = {}\n"
                "def put(k, v):\n"
                "    CACHE[k] = v\n"
            )
        },
    )
    findings = lint(root, "src", select={"PL002"})
    assert codes(findings) == ["PL002"]
    assert "'CACHE'" in findings[0].message


def test_pl002_accepts_with_lock_guard(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/engine/x.py": (
                "import threading\n"
                "CACHE = {}\n"
                "_lock = threading.Lock()\n"
                "def put(k, v):\n"
                "    with _lock:\n"
                "        CACHE[k] = v\n"
            )
        },
    )
    assert lint(root, "src", select={"PL002"}) == []


def test_pl002_flags_instance_container_mutation(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/engine/x.py": (
                "class Store:\n"
                "    def __init__(self):\n"
                "        self.data = {}\n"
                "    def put(self, k, v):\n"
                "        self.data[k] = v\n"
            )
        },
    )
    findings = lint(root, "src", select={"PL002"})
    assert codes(findings) == ["PL002"]
    assert findings[0].line == 5


def test_pl002_allows_init_and_threading_local_and_pragma(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/engine/x.py": (
                "import threading\n"
                "class Counters(threading.local):\n"
                "    def __init__(self):\n"
                "        self.data = {}\n"
                "    def bump(self, k):\n"
                "        self.data[k] = 1\n"
                "class Store:\n"
                "    def __init__(self):\n"
                "        self.data = {}\n"
                "        self.data['seed'] = 0\n"
                "    def put(self, k, v):\n"
                "        self.data[k] = v  # prodb-lint: lockfree -- GIL-atomic\n"
            )
        },
    )
    assert lint(root, "src", select={"PL002"}) == []


def test_pl002_tracks_dataclass_field_containers(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/engine/x.py": (
                "from dataclasses import dataclass, field\n"
                "@dataclass\n"
                "class Stats:\n"
                "    stages: dict = field(default_factory=dict)\n"
                "    def add(self, k, v):\n"
                "        self.stages[k] = v\n"
            )
        },
    )
    assert codes(lint(root, "src", select={"PL002"})) == ["PL002"]


def test_pl002_scoped_to_engine_and_booleans(tmp_path):
    root = make_project(
        tmp_path,
        {"src/repro/mln/x.py": "CACHE = {}\ndef put(k, v):\n    CACHE[k] = v\n"},
    )
    assert lint(root, "src", select={"PL002"}) == []


# -- PL003: float literal equality -------------------------------------------


def test_pl003_flags_eq_and_ne(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/core/x.py": (
                "def f(x, y):\n"
                "    if x == 0.5:\n"
                "        return 1\n"
                "    return y != 1.0\n"
            )
        },
    )
    assert codes(lint(root, "src", select={"PL003"})) == ["PL003", "PL003"]


def test_pl003_ignores_int_and_ordering_comparisons(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/core/x.py": (
                "import math\n"
                "def f(x):\n"
                "    return x == 0 or x <= 0.5 or math.isclose(x, 0.25)\n"
            )
        },
    )
    assert lint(root, "src", select={"PL003"}) == []


def test_pl003_exact_pragma_with_justification(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/core/x.py": (
                "def f(x):\n"
                "    if x == 0.0:  # prodb-lint: exact -- division guard\n"
                "        raise ZeroDivisionError\n"
                "    return 1.0 / x\n"
            )
        },
    )
    assert lint(root, "src", select={"PL003"}) == []


# -- PL004: unseeded randomness ----------------------------------------------


def test_pl004_flags_unseeded_random_in_benchmarks(tmp_path):
    root = make_project(
        tmp_path,
        {
            "benchmarks/bench_x.py": (
                "import random\n"
                "rng = random.Random()\n"
                "value = random.random()\n"
            )
        },
    )
    assert codes(lint(root, "benchmarks", select={"PL004"})) == ["PL004", "PL004"]


def test_pl004_accepts_seeded_generators(tmp_path):
    root = make_project(
        tmp_path,
        {
            "benchmarks/bench_x.py": (
                "import random\n"
                "import numpy as np\n"
                "rng = random.Random(0)\n"
                "npr = np.random.default_rng(7)\n"
            )
        },
    )
    assert lint(root, "benchmarks", select={"PL004"}) == []


def test_pl004_flags_global_numpy_random(tmp_path):
    root = make_project(
        tmp_path,
        {
            "benchmarks/bench_x.py": (
                "import numpy as np\n"
                "xs = np.random.rand(10)\n"
                "gen = np.random.default_rng()\n"
            )
        },
    )
    assert codes(lint(root, "benchmarks", select={"PL004"})) == ["PL004", "PL004"]


def test_pl004_scoped_to_benchmarks_and_samplers(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/mln/x.py": "import random\nrng = random.Random()\n",
            "src/repro/wmc/sampling.py": "import random\nrng = random.Random()\n",
        },
    )
    findings = lint(root, "src", select={"PL004"})
    assert sorted(f.path for f in findings) == ["src/repro/wmc/sampling.py"]


# -- PL005: __all__ consistency with docs/api.md -----------------------------

API_MD = """# API

```python
from repro.widgets import spin, unspin
```
"""


def test_pl005_flags_missing_all(tmp_path):
    root = make_project(
        tmp_path,
        {"src/repro/widgets.py": "def spin():\n    pass\n"},
        api_md=API_MD,
    )
    findings = lint(root, "src", select={"PL005"})
    assert codes(findings) == ["PL005"]
    assert "no __all__" in findings[0].message


def test_pl005_flags_incomplete_all(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/widgets.py": (
                "__all__ = ['spin']\n"
                "def spin():\n    pass\n"
                "def unspin():\n    pass\n"
            )
        },
        api_md=API_MD,
    )
    findings = lint(root, "src", select={"PL005"})
    assert codes(findings) == ["PL005"]
    assert "unspin" in findings[0].message


def test_pl005_accepts_complete_all(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/widgets.py": (
                "__all__ = ['spin', 'unspin']\n"
                "def spin():\n    pass\n"
                "def unspin():\n    pass\n"
            )
        },
        api_md=API_MD,
    )
    assert lint(root, "src", select={"PL005"}) == []


def test_pl005_ignores_undocumented_modules(tmp_path):
    root = make_project(
        tmp_path,
        {"src/repro/internal.py": "def helper():\n    pass\n"},
        api_md=API_MD,
    )
    assert lint(root, "src", select={"PL005"}) == []


# -- pragmas and the driver ---------------------------------------------------


def test_malformed_pragma_is_reported(tmp_path):
    root = make_project(
        tmp_path,
        {"src/repro/core/x.py": "x = 1  # prodb-lint: exacty\n"},
    )
    findings = lint(root, "src")
    assert codes(findings) == ["PL000"]
    assert "malformed" in findings[0].message


def test_file_level_disable(tmp_path):
    root = make_project(
        tmp_path,
        {
            "src/repro/core/x.py": (
                "# prodb-lint: disable-file=PL003\n"
                "a = 1.0 == 2.0\n"
                "b = 3.0 != 4.0\n"
            )
        },
    )
    assert lint(root, "src", select={"PL003"}) == []


def test_pragma_spans_multiline_statements():
    pragmas = parse_pragmas(
        "value = (\n"
        "    probe\n"
        "    == 0.5  # prodb-lint: exact\n"
        ")\n"
    )
    assert pragmas.is_disabled("PL003", 1, 4)
    assert not pragmas.is_disabled("PL003", 1, 2)
    assert not pragmas.is_disabled("PL001", 1, 4)


def test_syntax_error_becomes_pl000(tmp_path):
    root = make_project(tmp_path, {"src/repro/core/x.py": "def broken(:\n"})
    findings = lint(root, "src")
    assert codes(findings) == ["PL000"]
    assert "syntax error" in findings[0].message


def test_cli_exit_codes(tmp_path, capsys):
    root = make_project(
        tmp_path,
        {
            "src/repro/core/bad.py": "a = 1.0 == 2.0\n",
            "src/repro/core/good.py": "a = 1 == 2\n",
        },
    )
    bad = str(root / "src" / "repro" / "core" / "bad.py")
    good = str(root / "src" / "repro" / "core" / "good.py")
    assert main([good, "--root", str(root)]) == 0
    assert main([bad, "--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "PL003" in out and "1 finding" in out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("PL001", "PL002", "PL003", "PL004", "PL005"):
        assert code in out


def test_real_tree_is_lint_clean():
    """The acceptance criterion: the linter exits 0 on the repo itself."""
    repo = Path(__file__).resolve().parent.parent
    findings = lint_paths(
        [str(repo / "src"), str(repo / "benchmarks"), str(repo / "tests")],
        root=str(repo),
    )
    assert findings == []


# -- the extended pragma grammar (shared with prodb-flow) ----------------------


def test_rank_annotation_parsed():
    pragmas = parse_pragmas(
        "lock = threading.Lock()  # prodb-lint: rank=7 -- leaf, hand-audited\n"
    )
    assert pragmas.annotation("rank", 1, 1) == "7"
    assert pragmas.justification(1) == "leaf, hand-audited"
    assert pragmas.malformed == []


def test_rank_annotation_requires_integer():
    pragmas = parse_pragmas("x = 1  # prodb-lint: rank=high\n")
    assert len(pragmas.malformed) == 1
    line, _, detail = pragmas.malformed[0]
    assert line == 1
    assert "rank must be an integer" in detail
    assert "'high'" in detail


def test_loop_owned_annotation_parsed():
    pragmas = parse_pragmas(
        "self._writers = set()  # prodb-lint: loop-owned -- touched on loop\n"
    )
    assert pragmas.annotation("loop-owned", 1, 1) == "true"


def test_unknown_annotation_key_names_offending_token():
    pragmas = parse_pragmas("x = 1  # prodb-lint: lokfree\n")
    assert len(pragmas.malformed) == 1
    _, _, detail = pragmas.malformed[0]
    assert "unknown annotation key 'lokfree'" in detail
    assert "lockfree" in detail  # the known-keys list guides the fix


def test_disable_accepts_pf_codes():
    pragmas = parse_pragmas(
        "x = 1  # prodb-lint: disable=PF102,PL003 -- fixture lock\n"
    )
    assert pragmas.is_disabled("PF102", 1, 1)
    assert pragmas.is_disabled("PL003", 1, 1)
    assert not pragmas.is_disabled("PF101", 1, 1)


def test_disable_rejects_bad_code_with_token(tmp_path):
    pragmas = parse_pragmas("x = 1  # prodb-lint: disable=PX999\n")
    assert len(pragmas.malformed) == 1
    _, _, detail = pragmas.malformed[0]
    assert "PX999" in detail
