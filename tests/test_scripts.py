import os
import subprocess
import sys
from pathlib import Path

from respecting_cuts.generators import STRATEGIES

ROOT = Path(__file__).resolve().parents[1]


def test_case_frequencies_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "scripts/case_frequencies.py", "--trials", "5", "--n", "10"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.splitlines() if not line.startswith(" ")]
    assert headers == [f"{strategy}:" for strategy in STRATEGIES]


def test_case_frequencies_refuses_a_negative_seed():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "scripts/case_frequencies.py", "--trials", "1", "--seed", "-1"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "seed -1 is not a non-negative integer" in done.stderr


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # Reporting a failed @given test makes hypothesis import libcst, which
    # warns on import; under the project's warnings-as-errors setting that
    # warning must not abort the session before the tests after it.
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(probe),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
