"""Source hygiene of the package: every module uses the names it imports."""
import ast
from pathlib import Path

import pytest

import stefansim

PACKAGE = Path(stefansim.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names an ``import`` or ``from ... import`` binds in ``source`` that no
    expression reads; a name that only a docstring or comment mentions
    counts as unused.  ``from __future__`` imports are features, not names."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_scan_sees_docstring_only_names():
    source = ('"""Takes a SolverConfig."""\n'
              "from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .stepper import SolverConfig, State\n"
              "def f(x: np.ndarray) -> State:\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == [(5, "SolverConfig")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_modules_use_every_name_they_import(module):
    assert unused_imports(module.read_text()) == []
