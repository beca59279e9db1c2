import json

import pytest

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


def test_max_k_env_invalid(capsys, monkeypatch, f2_path):
    monkeypatch.setenv(MAX_K_ENV, "zero")
    code, _, err = run(capsys, "delta", "--graph", f2_path)
    assert code == 2
    assert "error:" in err


def test_unknown_command_exit_two(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2
