"""The scripts under scripts/ run and print their tables."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,max_n,header",
    [
        ("sumset_growth.py", 3, " k  n   |T_n|   exact   bound  n_k  status"),
        ("annihilator_gallery.py", 2, "== q = x^2 - 1 (Lewis polynomials) =="),
    ],
    ids=["sumset_growth", "annihilator_gallery"],
)
def test_script_runs_from_the_repository_root(script, max_n, header):
    proc = subprocess.run(
        [sys.executable, f"scripts/{script}", str(max_n)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_sumset_growth_exact_column_and_last_failures():
    proc = subprocess.run(
        [sys.executable, "scripts/sumset_growth.py", "5"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:] if line]
    assert len(rows) == 15
    assert all(row[2] == row[3] for row in rows)
    assert {row[0]: row[5] for row in rows} == {"1": "-", "2": "3", "3": "10"}
