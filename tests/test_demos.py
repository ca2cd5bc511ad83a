"""The demos and the package's exports still run after API changes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spotvol as sv

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_export_resolves():
    missing = [name for name in sv.__all__ if not hasattr(sv, name)]
    assert missing == []
