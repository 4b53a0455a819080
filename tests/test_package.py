"""Source hygiene of the package and the study scripts: every module uses
the names it imports, and ``__all__`` names the package's exports and no
submodule."""
import ast
import types
from pathlib import Path

import pytest

import stefansim

PACKAGE = Path(stefansim.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


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


@pytest.mark.parametrize("module", MODULES + SCRIPTS,
                         ids=lambda p: p.stem if p in MODULES else f"scripts.{p.stem}")
def test_modules_use_every_name_they_import(module):
    assert unused_imports(module.read_text()) == []


def test_all_lists_each_export_once_and_no_module():
    names = stefansim.__all__
    assert len(names) == len(set(names)) == 44
    assert not [name for name in names if isinstance(getattr(stefansim, name), types.ModuleType)]
    # every public name the package binds, other than its submodules
    exported = {name for name, value in vars(stefansim).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == exported
