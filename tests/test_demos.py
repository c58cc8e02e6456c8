"""Every script in ``demos/`` runs to completion and prints its story, and the README's library tour runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tfsm

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def package_env():
    """The environment with this suite's tfsm package first on ``PYTHONPATH``."""
    package_root = str(Path(tfsm.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), f"{demo.name} printed nothing"


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1, "README.md should hold one python block, the library tour"
    tour = blocks[0].split("```")[0]
    # The tour opens machines/ by relative path, so it runs from the repository root.
    proc = subprocess.run([sys.executable, "-c", tour], cwd=ROOT, env=package_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
