"""Every script in ``demos/`` runs to completion and prints its story."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfsm

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs(demo, tmp_path):
    # The demos import the tfsm package this suite imported.
    package_root = str(Path(tfsm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{demo.name} printed nothing"
