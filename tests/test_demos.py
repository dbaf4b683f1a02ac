"""Smoke test: the narrative demos run to completion.

Demo 05 writes the fig1 preset next to itself (into output/), so a copy
of it runs from a temporary directory.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
FIGURE_DEMO = ROOT / "demos" / "05_figure_sweeps.py"


def run_demo(path, cwd):
    # a RuntimeWarning (overflow, invalid value) fails a demo, as it fails the suite
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(path)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_demo_set_found():
    assert len(DEMOS) == 4
    assert FIGURE_DEMO.is_file()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_demo(demo, ROOT)
    assert proc.returncode == 0, proc.stderr


def test_figure_demo_runs_from_a_copy(tmp_path):
    copy = tmp_path / FIGURE_DEMO.name
    shutil.copy(FIGURE_DEMO, copy)
    proc = run_demo(copy, tmp_path)
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "output").glob("fig1_v*.csv"))
    assert written == [f"fig1_v{v}.csv" for v in (0, 1, 10, 2, 5)]
