"""Every layer the benchmark traces by name exists in the package, and the
stepper keeps the call contracts the benchmark's work counters read."""
import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from stefansim import stepper

from conftest import dt_setup

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


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_stepper_keeps_the_contracts_the_benchmark_counts_by(monkeypatch, theta,
                                                             forced_step_problem):
    # lag iterations are counted from temperature_step's result[2], bulk
    # unknowns from the size of _thomas_batched's 4th positional argument,
    # and fixed-point iterations from fixed_point_step's result[1].  Every
    # substitution goes through _thomas_batched, those of both sweeps
    # included: per solve of L lag iterations, one at each even iteration,
    # L // 2, with the bound substitution of a_harmonic and the rest with
    # that of a_mean, plus the Dirichlet response's one of the dt's operator,
    # which the dt's set-up makes for the interface update's constants
    cfg, state, forcing = forced_step_problem(theta)
    lags, rhs_seen, solves_seen = [], [], []
    real_temperature, real_substitution = stepper.temperature_step, stepper._thomas_batched

    def temperature(*args, **kwargs):
        result = real_temperature(*args, **kwargs)
        assert isinstance(result, tuple) and len(result) == 4
        lags.append(result[2])
        return result

    def substitution(*args, **kwargs):
        rhs_seen.append(args[3])
        solves_seen.append(args[0])
        return real_substitution(*args, **kwargs)

    monkeypatch.setattr(stepper, "temperature_step", temperature)
    monkeypatch.setattr(stepper, "_thomas_batched", substitution)
    setup = dt_setup(state, cfg)
    bulk = setup["setup"].bulk
    result = stepper.fixed_point_step(state, cfg, t_new=cfg.dt, forcing=forcing, **setup)
    assert isinstance(result, tuple) and len(result) == 2
    new_state, report = result
    assert isinstance(new_state, stepper.State)
    assert isinstance(report, stepper.StepReport)
    assert report.inner_iters >= 3 and len(lags) == report.inner_iters
    assert sum(lags) == report.lag_iters
    # each mode's whole column, real and imaginary parts: the traced count
    # is of real unknowns
    unknowns = 2 * (cfg.n_x // 2 + 1) * cfg.n_z
    assert rhs_seen
    assert all(rhs.dtype == np.float64 and rhs.size == unknowns for rhs in rhs_seen)
    harmonic = sum(solve is bulk.operators[1][0] for solve in solves_seen)
    mean = sum(solve is bulk.operators[0][0] for solve in solves_seen)
    assert max(lags) >= 3 and harmonic == sum(lag // 2 for lag in lags) > 0
    assert mean == sum(lag - lag // 2 for lag in lags) + 1 == len(rhs_seen) - harmonic
