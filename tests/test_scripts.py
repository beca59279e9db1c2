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
