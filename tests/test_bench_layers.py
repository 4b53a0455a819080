"""Every layer the benchmark traces by name exists in the package."""
import ast
import importlib
from pathlib import Path

WORKLOAD = Path(__file__).resolve().parents[1] / "bench" / "workload.py"


def traced_functions():
    """(module, attribute) of each TRACED_FUNCTIONS entry, read from the
    source without importing the benchmark."""
    for node in ast.parse(WORKLOAD.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TRACED_FUNCTIONS" for target in node.targets):
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError(f"no TRACED_FUNCTIONS in {WORKLOAD}")


def test_every_traced_benchmark_layer_resolves():
    pairs = traced_functions()
    assert pairs
    missing = [f"stefansim.{module}.{attr}" for module, attr in pairs
               if not callable(getattr(importlib.import_module(f"stefansim.{module}"), attr, None))]
    assert not missing
