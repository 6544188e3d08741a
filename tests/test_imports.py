"""The import path and the module graph: what ``cohrand`` loads and which
of its modules may import which."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohrand

PACKAGE = Path(cohrand.__file__).resolve().parent


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _relative_imports(tree: ast.Module) -> set:
    """Sibling modules named by ``from .x import ...`` (or ``from . import x``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module)
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_cli_import_loads_no_scipy():
    # A fresh interpreter: this test process may have loaded scipy already.
    # scipy is needed only by the Toeplitz hash, which imports it on first use.
    code = (
        "import sys, cohrand.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("distill", "roof"),  # the roof optimizer is not part of distillation
        ("stateio", "rng"),  # file formats need the state types, not sampling
    ],
)
def test_module_graph_is_one_way(module, forbidden):
    assert forbidden not in _relative_imports(_tree(module))


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
)
def test_no_unused_imports(module):
    tree = _tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
