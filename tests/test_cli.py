import json
import random

import numpy as np
import pytest

from respecting_cuts import cli
from respecting_cuts.cli import MAX_K_ENV, main

F1 = "3 3\n0 1\n1 2\n0 2\n"
F2 = "4 4\n0 1\n0 2\n0 3\n1 2\n"


@pytest.fixture()
def f1_path(tmp_path):
    path = tmp_path / "f1.g"
    path.write_text(F1)
    return str(path)


@pytest.fixture()
def f2_path(tmp_path):
    path = tmp_path / "f2.g"
    path.write_text(F2)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cutsize_respect_pinned(capsys, f1_path):
    code, out, err = run(
        capsys,
        "cutsize",
        "--graph",
        f1_path,
        "--tree",
        "0,1;1,2",
        "--root",
        "0",
        "--respect",
        "1,2",
    )
    assert code == 0
    assert out == '{"size":2,"k":2}\n'
    assert err == ""


def test_cutsize_vertex_set(capsys, f1_path):
    code, out, _ = run(
        capsys,
        "cutsize",
        "--graph",
        f1_path,
        "--tree",
        "0,1;1,2",
        "--vertex-set",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2
    assert payload["k"] == 2


def test_gamma_set_pinned(capsys, f2_path):
    code, out, _ = run(
        capsys,
        "gamma",
        "--graph",
        f2_path,
        "--tree",
        "bfs",
        "--root",
        "0",
        "--set",
        "1,2,3",
    )
    assert code == 0
    assert out == '{"gamma":0,"case":"CASE1"}\n'


def test_gamma_pair(capsys, f2_path):
    code, out, _ = run(
        capsys, "gamma", "--graph", f2_path, "--pair", "1,2"
    )
    assert code == 0
    assert json.loads(out) == {"gamma": 1, "case": "BASE_PAIR"}


def test_delta_pinned(capsys, f2_path):
    code, out, _ = run(capsys, "delta", "--graph", f2_path)
    assert code == 0
    assert out == '{"delta":{"1":2,"2":2,"3":1}}\n'


def test_decompose_pinned(capsys, f1_path):
    code, out, _ = run(
        capsys,
        "decompose",
        "--graph",
        f1_path,
        "--tree",
        "0,1;1,2",
        "--vertex-set",
        "0",
    )
    assert code == 0
    assert out == '{"basis":[1],"complemented":true,"k":1}\n'


def test_byte_determinism(capsys, f2_path):
    args = ("gamma", "--graph", f2_path, "--tree", "uniform", "--seed", "4", "--set", "1,2,3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_at_file_arguments(capsys, tmp_path, f1_path):
    tree_file = tmp_path / "tree.txt"
    tree_file.write_text("0,1;1,2")
    set_file = tmp_path / "side.txt"
    set_file.write_text("1,2")
    code, out, _ = run(
        capsys,
        "cutsize",
        "--graph",
        f1_path,
        "--tree",
        f"@{tree_file}",
        "--vertex-set",
        f"@{set_file}",
    )
    assert code == 0
    assert json.loads(out) == {"size": 2, "k": 1}


def test_selfcheck_exit_zero(capsys):
    code, out, err = run(
        capsys, "selfcheck", "--n", "6", "--trials", "25", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    assert payload["comparisons"] > 0
    assert err == ""


def test_selfcheck_checks_sets_above_the_size_limit(capsys):
    # Random vertex sets of 40-vertex graphs have bases above the default
    # limit of 16; the checker must not refuse its own instances.
    code, out, err = run(capsys, "selfcheck", "--n", "40", "--trials", "10")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    assert payload["comparisons"] > 0


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["--trials", "-3"], "at least 1 trial, got -3"),
        (["--trials", "0"], "at least 1 trial, got 0"),
        (["--n", "0", "--trials", "2"], "n of at least 3, got 0"),
        (["--n", "2"], "n of at least 3, got 2"),
        (["--n", "64", "--trials", "2"], "n of at most 63, got 64"),
    ],
)
def test_selfcheck_refuses_a_run_that_checks_nothing(capsys, argv, shown):
    code, out, err = run(capsys, "selfcheck", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and shown in err


def test_negative_seed_is_named(capsys, f1_path):
    for argv in (
        ["selfcheck", "--seed", "-1"],
        ["delta", "--graph", f1_path, "--tree", "uniform", "--seed", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: seed -1 is not a non-negative integer\n"


def test_missing_graph_file_exit_two(capsys, tmp_path):
    code, out, err = run(
        capsys, "delta", "--graph", str(tmp_path / "absent.g")
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "content",
    [
        "notanint 3\n0 1\n",  # bad header
        "3 2\n0 1\n",  # fewer edge lines than declared
        "3 2\n0 1\n1 1\n",  # self-loop
        "3 1\n0 9\n",  # endpoint out of range
        "3 1\n0 1 0\n",  # zero weight
    ],
)
def test_bad_graph_files_exit_two(capsys, tmp_path, content):
    path = tmp_path / "bad.g"
    path.write_text(content)
    code, out, err = run(capsys, "delta", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "content, message",
    [
        ("# only a comment\n\n", ": no content lines"),
        ("3\n0 1\n", ":1: header must be two integers 'n m'"),
        ("# c\n3 x\n0 1\n", ":2: header must be integers"),
        # the edge count is checked before any edge line
        ("3 3\n0 1\n0 1 2 3\n", ": header declares 3 edges, found 2"),
        ("3 3\n0 1\n\n0 1 2 3\n1 x\n", ":4: edge line must be 'u v' or 'u v w'"),
        ("3 3\n0 1 # ok\n1 x\n0 1 2 3\n", ":3: edge fields must be integers"),
    ],
)
def test_bad_graph_file_messages(capsys, tmp_path, content, message):
    path = tmp_path / "bad.g"
    path.write_text(content)
    code, out, err = run(capsys, "delta", "--graph", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}{message}\n"


def _outcome(parse, path):
    """A parse result as comparable plain data: the graph's arrays, or
    the error's type and message."""
    try:
        g = parse(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    assert g.edge_u.dtype == g.edge_v.dtype == g.edge_weight.dtype == np.int64
    return g.n, g.edge_u.tolist(), g.edge_v.tolist(), g.edge_weight.tolist()


def _parse_counting_the_loop(monkeypatch, path):
    """(outcome of _parse_graph_file, times it ran the line loop)."""
    calls = []
    loop = cli._parse_lines

    def counted(p):
        calls.append(p)
        return loop(p)

    monkeypatch.setattr(cli, "_parse_lines", counted)
    out = _outcome(cli._parse_graph_file, path)
    monkeypatch.undo()
    return out, len(calls)


@pytest.mark.parametrize(
    "content, path",
    [
        ("3 2\n0 1\n1 2\n", "numpy"),
        ("3 2\n0 1 4\n1 2 5\n", "numpy"),
        ("# c\n\n3 2\n\n# e\n0 1\n\n1 2\n\n", "numpy"),
        ("3 2 # n m\n0 1 # a\n1 2 #\n", "numpy"),
        ("3 2\r\n0\t1\r\n1  2\r\n", "numpy"),
        ("3 2\n+0 1 +5\n1 +2 5\n", "numpy"),
        ("13 1\n00012 0 007\n", "numpy"),
        ("3 1\n-0 1\n", "numpy"),
        # accepted by numpy, refused by the graph with the loop's message
        ("3 2\n0 1\n1 1\n", "numpy"),
        ("3 1\n0 9\n", "numpy"),
        ("3 1\n0 1 0\n", "numpy"),
        ("11 1\n1_0 2\n", "loop"),
        ("4 1\n\u0663 1\n", "loop"),
        ("3 1\n1.0 2\n", "loop"),
        ("3 1\n1.5 2\n", "loop"),
        (f"3 1\n0 {2**63}\n", "loop"),
        ("3 2\n0 1\n1 2 7\n", "loop"),
        ("3 1\n0 1 2 3\n", "loop"),
        ("3 1\n1\xa02\n", "loop"),
        ("3 1\n1,2\n", "loop"),
        ("3 0\n", "loop"),
        ("3 2\n# only a comment\n\n", "loop"),
        # numpy's integer parser can crash on characters like this one
        ("3 1\n0 \U0002c6cb\n", "loop"),
        ("3\n0 1\n", "loop"),
        ("3 x\n0 1\n", "loop"),
        ("3 3\n0 1\n1 2\n", "loop"),
    ],
)
def test_numpy_parse_agrees_with_the_line_loop(monkeypatch, tmp_path, content, path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(content, encoding="utf-8")
    expected = _outcome(cli._parse_lines, str(graph_file))
    got, loops = _parse_counting_the_loop(monkeypatch, str(graph_file))
    assert got == expected
    assert loops == (1 if path == "loop" else 0)


def test_numpy_parse_agrees_with_the_line_loop_on_random_files(monkeypatch, tmp_path):
    # Mostly well-formed files with odd signs, zeros, ASCII and Unicode
    # separators, comments, CRLF, stray field counts and wrong headers:
    # both paths must be taken, with the loop's outcome every time.
    rng = random.Random(8)
    tokens = ["0", "1", "2", "3", "+1", "-0", "007", "-1", "4", "1_0", "1.0", "x", "2e0"]
    gaps = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0"]
    paths = set()
    for trial in range(300):
        cols = rng.choice([2, 3])
        lines = []
        for _ in range(rng.randint(0, 6)):
            width = cols if rng.random() < 0.9 else rng.choice([1, 2, 3, 4])
            fields = [rng.choice(tokens[:6] if rng.random() < 0.8 else tokens) for _ in range(width)]
            line = rng.choice(gaps[:3] if rng.random() < 0.8 else gaps).join(fields)
            if rng.random() < 0.2:
                line += " # " + rng.choice(tokens)
            lines.append(line)
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "# c", " "]))
        m = len([ln for ln in lines if ln.split("#", 1)[0].split()])
        if rng.random() < 0.1:
            m += rng.choice([-1, 1])
        newline = rng.choice(["\n", "\r\n"])
        content = newline.join([f"5 {m}"] + lines) + newline
        graph_file = tmp_path / f"g{trial}.txt"
        graph_file.write_text(content, encoding="utf-8", newline="")
        expected = _outcome(cli._parse_lines, str(graph_file))
        got, loops = _parse_counting_the_loop(monkeypatch, str(graph_file))
        assert got == expected, content
        paths.add(loops)
    assert paths == {0, 1}


def test_graph_file_comments_and_weights(capsys, tmp_path):
    path = tmp_path / "weighted.g"
    path.write_text("# header\n3 3\n0 1 5\n1 2 4\n# chord\n0 2 2\n")
    code, out, _ = run(
        capsys, "cutsize", "--graph", str(path), "--tree", "0,1;1,2", "--vertex-set", "1"
    )
    assert code == 0
    assert json.loads(out) == {"size": 9, "k": 2}


def test_bad_tree_spec_exit_two(capsys, f1_path):
    code, _, err = run(
        capsys, "delta", "--graph", f1_path, "--tree", "0,1;0,1"
    )
    assert code == 2
    assert "error:" in err


def test_max_k_env_enforced(capsys, monkeypatch, f2_path):
    monkeypatch.setenv(MAX_K_ENV, "2")
    code, out, err = run(
        capsys, "gamma", "--graph", f2_path, "--set", "1,2,3"
    )
    assert code == 2
    assert out == ""
    assert "exceeds the configured limit of 2" in err


@pytest.fixture()
def path40(tmp_path):
    path = tmp_path / "path40.g"
    path.write_text("40 39\n" + "".join(f"{i} {i + 1}\n" for i in range(39)))
    return str(path)


@pytest.mark.parametrize("command,flag", [("gamma", "--set"), ("cutsize", "--respect")])
def test_default_size_limit(capsys, monkeypatch, path40, command, flag):
    monkeypatch.delenv(MAX_K_ENV, raising=False)
    many = ",".join(map(str, range(1, 31)))
    code, out, err = run(capsys, command, "--graph", path40, flag, many)
    assert (code, out) == (2, "")
    assert "query set of size 30 exceeds the configured limit of 16" in err


@pytest.mark.parametrize("command,flag", [("gamma", "--set"), ("cutsize", "--respect")])
def test_size_limit_counts_distinct_members(capsys, monkeypatch, path40, command, flag):
    monkeypatch.setenv(MAX_K_ENV, "2")
    code, out, err = run(capsys, command, "--graph", path40, flag, "1,1,2")
    assert (code, out) == (2, "")
    assert "duplicate vertices in query set" in err


def test_max_k_env_invalid(capsys, monkeypatch, f2_path):
    monkeypatch.setenv(MAX_K_ENV, "zero")
    code, _, err = run(capsys, "delta", "--graph", f2_path)
    assert code == 2
    assert "error:" in err


def test_unknown_command_exit_two(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
