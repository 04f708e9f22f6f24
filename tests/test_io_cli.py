"""Unit tests for CSV I/O and the command-line interface."""

import pytest

from repro.cli import main
from repro.relational.io import load_relation, load_tid, save_relation, save_tid
from repro.relational.relation import Relation

from conftest import close


@pytest.fixture
def csv_dir(tmp_path):
    (tmp_path / "R.csv").write_text("x,P\na,0.5\nb,0.25\n")
    (tmp_path / "S.csv").write_text("x,y,P\na,a,0.8\na,b,0.3\nb,b,0.9\n")
    return tmp_path


def test_load_relation(csv_dir):
    relation = load_relation(csv_dir / "S.csv")
    assert relation.name == "S"
    assert relation.attributes == ("x", "y")
    assert close(relation.probability(("a", "b")), 0.3)


def test_load_relation_without_probability_column(tmp_path):
    path = tmp_path / "D.csv"
    path.write_text("x\na\nb\n")
    relation = load_relation(path)
    assert relation.is_deterministic()
    assert len(relation) == 2


def test_load_relation_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_relation(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,P\na,notanumber\n")
    with pytest.raises(ValueError, match="bad probability"):
        load_relation(bad)
    short = tmp_path / "short.csv"
    short.write_text("x,y,P\na,0.5\n")
    with pytest.raises(ValueError, match="expected 2 values"):
        load_relation(short)


def test_round_trip(tmp_path):
    relation = Relation("R", ("x",), {("a",): 0.5, ("b",): 0.25})
    path = tmp_path / "R.csv"
    save_relation(relation, path)
    loaded = load_relation(path)
    assert loaded.rows == relation.rows


def test_load_tid(csv_dir):
    db = load_tid([csv_dir / "R.csv", csv_dir / "S.csv"])
    assert set(db.relations) == {"R", "S"}
    assert close(db.probability_of_fact("R", ("a",)), 0.5)


def test_load_tid_duplicate_rejected(csv_dir):
    with pytest.raises(ValueError):
        load_tid([csv_dir / "R.csv", csv_dir / "R.csv"])


def test_save_tid_round_trip(csv_dir, tmp_path):
    db = load_tid([csv_dir / "R.csv", csv_dir / "S.csv"])
    out = tmp_path / "out"
    written = save_tid(db, out)
    assert len(written) == 2
    reloaded = load_tid(written)
    assert list(reloaded.facts()) == list(db.facts())


# -- CLI -------------------------------------------------------------------------


def test_cli_query(csv_dir, capsys):
    code = main(
        ["query", str(csv_dir / "R.csv"), str(csv_dir / "S.csv"), "-q", "R(x), S(x,y)"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "probability" in out
    assert "safe-plan" in out


def test_cli_query_sentence(csv_dir, capsys):
    code = main(
        [
            "query",
            str(csv_dir / "R.csv"),
            str(csv_dir / "S.csv"),
            "-q",
            "forall x. forall y. (S(x,y) -> R(x))",
            "-m",
            "brute-force",
        ]
    )
    assert code == 0
    assert "brute-force" in capsys.readouterr().out


def test_cli_explain(csv_dir, capsys):
    code = main(
        [
            "query",
            str(csv_dir / "R.csv"),
            str(csv_dir / "S.csv"),
            "-q",
            "R(x), S(x,y)",
            "--explain",
        ]
    )
    assert code == 0
    assert "query method" in capsys.readouterr().out


def test_cli_safety(capsys):
    assert main(["safety", "-q", "R(x), S(x,y), T(y)"]) == 0
    assert "#P-hard" in capsys.readouterr().out
    assert main(["safety", "-q", "R(x), S(x,y)"]) == 0
    assert "PTIME" in capsys.readouterr().out


def test_cli_safety_prints_the_derivation_or_the_blocking_subquery(capsys):
    assert main(["safety", "-q", "R(x), S(x,y) | T(u), S(u,v)"]) == 0
    head, _, rest = capsys.readouterr().out.partition("derivation :")
    assert "PTIME" in head and "blocked on" not in head
    derivation = rest.splitlines()[1:]  # one indented line per rule node
    assert derivation[0].startswith("  [separator] [R(x), S(x, y)]  |  [T(u), S(u, v)]")
    assert any(line.startswith("    [inclusion-exclusion]") for line in derivation)
    assert any("[ground] R($0)" in line for line in derivation)

    assert main(["safety", "-q", "R(x), S(x,y) | S(u,v), T(v)"]) == 0
    out = capsys.readouterr().out
    assert "#P-hard" in out and "derivation" not in out
    assert "blocked on : [R(x), S(x, y)]  |  [S(u, v), T(v)]" in out


def test_cli_query_stats_show_the_derivation_cache(csv_dir, capsys):
    argv = ["query", str(csv_dir / "R.csv"), str(csv_dir / "S.csv"), "--stats", "-q"]
    assert main(argv + ["R(x), S(x,y) | S(u,v), R(v)"]) == 0
    assert main(argv + ["R(z), S(z,w) | S(p,q), R(q)"]) == 0
    out = capsys.readouterr().out
    assert "derivation_cache_hit=1" in out
    assert "→ grounded" in out


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    assert "Figure 1" in capsys.readouterr().out


def test_cli_query_stats(csv_dir, capsys):
    code = main(
        [
            "query",
            str(csv_dir / "R.csv"),
            str(csv_dir / "S.csv"),
            "-q",
            "R(x), S(x,y)",
            "--stats",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "stage times" in out
    assert "total=" in out


def test_cli_query_stats_kernel_counters(csv_dir, capsys):
    # the grounded route surfaces the hash-consing kernel's counters
    code = main(
        [
            "query",
            str(csv_dir / "R.csv"),
            str(csv_dir / "S.csv"),
            "-q",
            "R(x), S(x,y)",
            "-m",
            "dpll",
            "--stats",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel" in out
    assert "kernel_unique_nodes=" in out


def test_cli_query_seed_reproducible(csv_dir, capsys):
    argv = [
        "query",
        str(csv_dir / "R.csv"),
        str(csv_dir / "S.csv"),
        "-q",
        "R(x), S(x,y)",
        "-m",
        "karp-luby",
        "--seed",
        "42",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_batch(csv_dir, capsys):
    code = main(
        [
            "batch",
            str(csv_dir / "R.csv"),
            str(csv_dir / "S.csv"),
            "-q",
            "R(x), S(x,y)",
            "-q",
            "S(x,y)",
            "--repeat",
            "3",
            "--stats",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("P(R(x), S(x,y))") == 3
    assert "[cached]" in out
    assert "answer cache" in out
    assert "hit rate" in out


def test_cli_batch_single_query(csv_dir, capsys):
    code = main(["batch", str(csv_dir / "R.csv"), "-q", "R(x)"])
    assert code == 0
    assert "P(R(x))" in capsys.readouterr().out


def test_cli_batch_rejects_bad_repeat(csv_dir, capsys):
    code = main(
        ["batch", str(csv_dir / "R.csv"), "-q", "R(x)", "--repeat", "0"]
    )
    assert code == 2


def test_cli_query_malformed_query_one_line_error(csv_dir, capsys):
    """A parse error exits 2 with one stderr line, never a traceback."""
    code = main(["query", str(csv_dir / "R.csv"), "-q", "R(x,"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err


def test_cli_batch_malformed_query_one_line_error(csv_dir, capsys):
    code = main(["batch", str(csv_dir / "R.csv"), "-q", "R(x), ???"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_safety_malformed_query_one_line_error(capsys):
    code = main(["safety", "-q", "R(x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


def test_cli_keyboard_interrupt_exits_130(csv_dir, capsys, monkeypatch):
    """Ctrl-C mid-command exits 130 with a one-line message, no traceback."""
    import repro.cli as cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_query", interrupted)
    code = main(["query", str(csv_dir / "R.csv"), "-q", "R(x)"])
    captured = capsys.readouterr()
    assert code == 130
    assert captured.err.strip() == "interrupted"


def test_cli_serve_requires_files_or_demo(capsys):
    code = main(["serve"])
    captured = capsys.readouterr()
    assert code == 2
    assert "CSV files" in captured.err
