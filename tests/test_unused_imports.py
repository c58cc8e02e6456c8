"""No module of the package or of its tests imports a name it never uses.

A name counts as used when it appears anywhere in the module as a bare
name, alone or as the base of an attribute.  ``__init__.py`` re-exports its
imports, and ``pipelines`` keeps the names that ``bench/spans.py`` wraps at
that site; both are exempt.  ``bench/spans.py`` is executed from its source
text and only read.
"""

import ast
from pathlib import Path

import pytest

from test_bench_sites import spans

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "tfsm").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {attr for module, attr, _ in spans.SITES if path == ROOT / "src" / "tfsm" / f"{module}.py"}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | wrapped | {"*"}]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []
