"""Smoke tests: each demo script runs to completion and prints its headline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, headline",
    [
        ("classify_small_graphs.py", "12 13 14 23 24 34                 24    24   yes      1 of 1"),
        ("path_comb_skew.py", "|Fer| = 720 = 6! = 720  -> local amoeba"),
        ("wreath_counterexample.py", "|Fer| = 82944 = (4!)^3 * 3! = 82944"),
    ],
)
def test_demo_runs_and_prints_its_headline(script, headline):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert headline in done.stdout.splitlines()
