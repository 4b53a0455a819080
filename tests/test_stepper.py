"""Time stepping: solver config, temperature solve, interface update,
per-step fixed point, and the run driver."""
import functools
import gc
import inspect
import operator
import re
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lapack

from stefansim import functionals, identity, stepper
from stefansim import grids as grids_module
from stefansim.config import build_initial_data, parse_config
from stefansim.errors import (
    ConfigError,
    DegenerateTransformError,
    FixedPointError,
    LinearSolveError,
    NonFiniteFieldError,
    ResolutionWarning,
)
from stefansim.functionals import EnergyNormK0, evaluate_functionals, state_energy_k0
from stefansim.grids import RealTransforms, d_tangential, real_transforms
from stefansim.identity import identity_residual_k0
from stefansim.stepper import (
    SolverConfig,
    State,
    compatible_initial_temperature,
    fixed_point_step,
    interface_step,
    make_level,
    run,
    temperature_step,
)
from stefansim.transform import (
    coefficients,
    curvature,
    jump_normal_derivative,
    norm_weights,
)

from conftest import HALVING_STALL_DT, dt_setup, stall_above


# --------------------------------------------------------------- config

def test_solver_config_validation():
    for kwargs in (dict(epsilon=-1.0), dict(dt=0.0), dict(dt=-1e-3),
                   dict(epsilon=np.nan), dict(epsilon=np.inf), dict(dt=np.nan), dict(dt=np.inf),
                   dict(theta=0.4), dict(theta=1.1), dict(k_diag=4),
                   dict(k_diag=-1),
                   # the grids reject these when the config is made
                   dict(n_x=7), dict(n_x=6), dict(n_z=8), dict(n_z=3),
                   dict(n_z=7), dict(n_z=5)):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
    # the smallest values each bound admits
    cfg = SolverConfig(n_x=8, n_z=9)
    assert cfg.grids().shape == (8, 9)
    # grid validation propagates through the config helpers
    with pytest.raises(ValueError):
        SolverConfig(n_x=10, n_z=8).grids()


def test_solver_config_sets_six_values_and_fixes_the_rest():
    assert [f.name for f in fields(SolverConfig)] == [
        "epsilon", "dt", "n_x", "n_z", "theta", "k_diag"]
    constants = dict(alpha=0.25, fp_tol=1e-12, fp_max_iter=60, lin_tol=1e-11,
                     lin_max_iter=200, trace_tol=1e-6, max_dt_halvings=2)
    cfg = SolverConfig(n_x=16, n_z=9)
    for name, value in constants.items():
        assert getattr(cfg, name) == value, name
        # neither the constructor nor a replacement can set a constant
        with pytest.raises(TypeError):
            SolverConfig(**{name: value})
        with pytest.raises(TypeError):
            replace(cfg, **{name: value})
    assert cfg.cutoff().alpha == SolverConfig.alpha


# ---------------------------------------------------- temperature solve

def dense_flat_reference(u_line, dt, n_z):
    """Dense solve of the flat-interface backward-Euler z-line system."""
    dz = 2.0 / (n_z - 1)
    mid = (n_z - 1) // 2
    M = np.zeros((n_z, n_z))
    rhs = u_line / dt
    for i in range(n_z):
        if i == mid:
            M[i, i] = 1.0
            rhs[i] = 0.0  # curvature of the flat interface
        elif i in (0, n_z - 1):
            M[i, i] = 1.0 / dt + 2.0 / dz**2
            M[i, 1 if i == 0 else n_z - 2] = -2.0 / dz**2  # mirror ghost
        else:
            M[i, i] = 1.0 / dt + 2.0 / dz**2
            M[i, i - 1] = M[i, i + 1] = -1.0 / dz**2
    return np.linalg.solve(M, rhs)


def solve_alone(rho, rho_t, u_old, cfg, grids, cutoff, *, dirichlet=None,
                f_new=None, f_old=None, inv_dt=None):
    """``temperature_step`` on a step of its own: the coefficients frozen
    at (rho, rho_t), the operator factored from their a, 1/dt from cfg
    unless given, and the curvature of rho as Dirichlet
    data unless given."""
    coef = coefficients(rho, rho_t, cutoff, grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    inv_dt = 1.0 / cfg.dt if inv_dt is None else inv_dt
    step = prepare_step(coef.a, u_old, f_new, f_old, inv_dt, cfg.theta, grids)
    return temperature_step(step, coef,
                            dirichlet=curvature(rho) if dirichlet is None else dirichlet,
                            **cold_start(step))


def real_layout(hat):
    """The real layout (2, modes, ...) of the complex coefficients hat."""
    return np.stack((hat.real, hat.imag))


def complex_of(x):
    """The complex coefficients of the real layout x."""
    return x[0] + 1j * x[1]


def fields_of(v, grids):
    """v's ``_bulk_fields``, built as ``make_level`` builds them: from the
    forward product of v, whose complex form rides along."""
    x = real_transforms(grids.tangential.n_x).forward(v)
    return stepper._bulk_fields(v, x, grids, stepper._complex(x))


def prepare_step(a, u_old, f_new, f_old, inv_dt, theta, grids, fp_norm=None):
    """``stepper._prepare_step`` from u_old alone, with the operator
    factored from the weight a: u_old's fields are built here, as
    ``make_level`` builds them."""
    return stepper._prepare_step(stepper._BulkLU(a, inv_dt, theta, grids), u_old,
                                 fields_of(u_old, grids), f_new, f_old, grids, fp_norm=fp_norm)


def cold_start(step):
    """The ``temperature_step`` arguments of a solve from the step's u_old
    on the residual test alone, as a step's first iterate makes it."""
    return {"start": (step.u, step.fields), "res_tol": SolverConfig.lin_tol, "update_tol": np.inf}


def bulk_operator(v, coef, grids):
    """``_interior_operator`` on v with v's fields built afresh."""
    return stepper._interior_operator(coef, fields_of(v, grids))


def test_temperature_step_matches_dense_flat_solve():
    cfg = SolverConfig(dt=1e-3, n_x=8, n_z=17)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    z = grids.normal.nodes
    u_old = np.broadcast_to(np.cos(np.pi * z)[None, :], grids.shape).copy()
    zeros = np.zeros(8)
    u_new, residual, lag_iters, fields = solve_alone(
        zeros, zeros, u_old, cfg, grids, cutoff)
    assert residual <= cfg.lin_tol
    # the fields a warm start from u_new reuses are u_new's own.  u_new does
    # not vary in x, so its xx and xz are zero up to the roundoff of the
    # transform products, on both sides; the rest agree to 1e-12 of their own
    # size
    ref = fields_of(u_new, grids)
    for name, got, want in zip(ref._fields, fields, ref, strict=True):
        if name in ("xx", "xz"):
            assert max(np.abs(got).max(), np.abs(want).max()) <= 1e-13 * np.abs(u_new).max()
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
    dense = dense_flat_reference(np.cos(np.pi * z), cfg.dt, 17)
    assert np.abs(u_new - dense[None, :]).max() < 1e-12


def dense_half_strip_solve(a_line, k, inv_dt, theta, dz, rhs, dirichlet):
    """Dense solve of one mode's half-strip system, interface row first:
    a Dirichlet row, centered interior rows and a mirror-ghost wall row.

    The Dirichlet row is scaled to the size of its neighbour; at unit
    size, partial pivoting swaps it with row 1 and loses about four digits
    at n_z = 257.
    """
    n = a_line.size
    M = np.zeros((n, n))
    for j in range(1, n):
        off = theta * a_line[j] / dz**2
        M[j, j] = inv_dt + theta * k**2 + 2.0 * off
        M[j, j - 1] = -2.0 * off if j == n - 1 else -off
        if j < n - 1:
            M[j, j + 1] = -off
    M[0, 0] = M[1, 1]
    b = np.array(rhs, dtype=complex)
    b[0] = M[0, 0] * dirichlet
    return np.linalg.solve(M, b)


@pytest.mark.parametrize("n_z", [17, 257])
@pytest.mark.parametrize("theta, inv_dt", [(1.0, 1e3), (0.5, 1e2), (1.0, 0.0)])
def test_bulk_solve_matches_dense_half_strips(n_z, theta, inv_dt):
    from stefansim.stepper import _BulkLU

    cfg = SolverConfig(n_x=16, n_z=n_z, theta=theta)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    x = grids.tangential.nodes
    rho = 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
    coef = coefficients(rho, np.zeros_like(rho), cutoff, grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    a_mean = coef.a.mean(axis=0)
    assert np.ptp(a_mean) > 1e-3  # the non-flat interface makes a_mean vary in z
    rng = np.random.default_rng(7)
    rhs_hat = np.fft.rfft(rng.standard_normal(grids.shape), axis=0)
    dir_hat = np.fft.rfft(rng.standard_normal(cfg.n_x))

    bulk = _BulkLU(a_mean, inv_dt, theta, grids)
    x_hat = complex_of(bulk.solve(real_layout(rhs_hat), real_layout(dir_hat)))
    mid, dz = grids.normal.i_mid, grids.normal.dz
    halves = (np.arange(mid, n_z), np.arange(mid, -1, -1))  # interface outward
    sigma_ref = np.zeros(cfg.n_x // 2 + 1)
    for k in range(cfg.n_x // 2 + 1):
        for rows in halves:
            ref = dense_half_strip_solve(a_mean[rows], k, inv_dt, theta, dz,
                                         rhs_hat[k, rows], dir_hat[k])
            err = np.abs(x_hat[k, rows] - ref).max() / np.abs(ref).max()
            assert err < 1e-12, (k, err)
            unit = dense_half_strip_solve(a_mean[rows], k, inv_dt, theta, dz,
                                          np.zeros(rows.size), 1.0).real
            sigma_ref[k] += (3.0 - 4.0 * unit[1] + unit[2]) / (2.0 * dz)
    sigma = bulk.jump_response
    assert np.abs(sigma - sigma_ref).max() <= 1e-12 * np.abs(sigma_ref).max()


@pytest.mark.parametrize("n_z", [17, 257])
@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_bulk_solve_keeps_its_arguments_and_the_dirichlet_row(n_z, theta):
    # the solve works on its own scaled copy of rhs (callers reuse theirs),
    # and the interface row is an identity row holding dirichlet exactly, in
    # both blocks of the real layout
    cfg = SolverConfig(n_x=16, n_z=n_z, theta=theta)
    grids = cfg.grids()
    z = grids.normal.nodes
    bulk = stepper._BulkLU(1.0 + 0.3 * np.cos(np.pi * z), 1e2, theta, grids)
    rng = np.random.default_rng(3)
    rhs = real_layout(np.fft.rfft(rng.standard_normal(grids.shape), axis=0))
    dirichlet = real_layout(np.fft.rfft(rng.standard_normal(cfg.n_x)))
    rhs_copy, dir_copy = rhs.copy(), dirichlet.copy()
    x = bulk.solve(rhs, dirichlet)
    assert x.shape == rhs.shape == bulk.shape and x.dtype == np.float64
    assert np.array_equal(rhs.view(np.uint64), rhs_copy.view(np.uint64))
    assert np.array_equal(dirichlet.view(np.uint64), dir_copy.view(np.uint64))
    row = np.ascontiguousarray(x[:, :, grids.normal.i_mid])
    assert np.array_equal(row.view(np.uint64), dirichlet.view(np.uint64))


# (name, SolverConfig overrides) of the benchmark's bulk operators: 33 modes
# of 65 nodes (decay-k1) and 17 modes of 257 (mms-column)
BULK_OPERATORS = {"decay-k1": dict(n_x=64, n_z=65, theta=1.0, dt=1e-3),
                  "mms-column": dict(n_x=32, n_z=257, theta=0.5, dt=0.01)}
numpy_lapack = pytest.mark.skipif(not isinstance(stepper._dpttrs, stepper._Dpttrs),
                                  reason="numpy's LAPACK lacks scipy_dpttrf_64_/scipy_dpttrs_64_")


def bulk_diagonals(monkeypatch, name):
    """The two (d, e) that ``_BulkLU`` factors for the operator ``name`` at
    a non-flat interface, those of a_mean and of a_harmonic, caught on
    their way to ``_dpttrf``."""
    cfg = SolverConfig(**BULK_OPERATORS[name])
    grids, cutoff = cfg.grids(), cfg.cutoff()
    x = grids.tangential.nodes
    rho = 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
    a = coefficients(rho, np.zeros_like(rho), cutoff, grids, rho_x=d_tangential(rho, 1),
                     rho_xx=d_tangential(rho, 2)).a
    seen, real = [], stepper._dpttrf
    monkeypatch.setattr(stepper, "_dpttrf", lambda *args: seen.append(args) or real(*args))
    stepper._BulkLU(a, 1.0 / cfg.dt, cfg.theta, grids)
    monkeypatch.undo()
    assert len(seen) == 2 and not np.array_equal(seen[0][0], seen[1][0])
    assert all(diagonals[0].size == (cfg.n_x // 2 + 1) * cfg.n_z for diagonals in seen)
    return seen


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                                                 np.ascontiguousarray(b).view(np.uint8))


def factor_and_solve(dpttrf, dpttrs, diagonals, rhs):
    """The ``dpttrf`` factors of the diagonals and the solution for rhs
    (both blocks of the real layout at once) by ``dpttrs``, as ``_BulkLU``
    uses them."""
    d, e, info = dpttrf(*diagonals)
    assert info == 0
    x, info = dpttrs(d, e, rhs.copy())
    assert info == 0
    return (d, e), x


@numpy_lapack
@pytest.mark.parametrize("name", sorted(BULK_OPERATORS))
def test_numpy_lapack_binding_matches_the_scipy_fallback_bitwise(monkeypatch, name):
    # the resolver falls back to scipy's own routines for no library and
    # for one without both ILP64 symbols
    for lib in (None, SimpleNamespace(scipy_dpttrf_64_=None)):
        fallback = stepper._pt_lapack(lib)
        assert fallback[0] is lapack.dpttrf
    operators = bulk_diagonals(monkeypatch, name)
    for diagonals in operators:
        n = diagonals[0].size
        rhs = np.random.default_rng(5).standard_normal((2, n))
        factors, x = factor_and_solve(stepper._dpttrf, stepper._dpttrs, diagonals, rhs)
        ref_factors, ref_x = factor_and_solve(*fallback, diagonals, rhs)
        assert all(map(same_bits, factors, ref_factors))
        assert x.shape == rhs.shape and same_bits(x, ref_x)
    # the factored diagonals are kept, as scipy's wrapper keeps them
    for diagonals, again in zip(operators, bulk_diagonals(monkeypatch, name), strict=True):
        assert all(map(same_bits, diagonals, again))


def test_indefinite_bulk_operator_raises_with_dpttrf_info():
    # with a negative 1/dt the first pivot is negative; an a_mean that is
    # not positive everywhere has no row scale and is refused before
    grids = SolverConfig(n_x=16, n_z=17).grids()
    with pytest.raises(LinearSolveError, match=r"not positive definite \(dpttrf info=1\)"):
        stepper._BulkLU(np.ones(17), -1e3, 1.0, grids)
    for a_mean in (np.zeros(17), -np.ones(17), np.full(17, np.nan)):
        with pytest.raises(LinearSolveError, match=r"needs a_mean > 0"):
            stepper._BulkLU(a_mean, 1e3, 1.0, grids)


@numpy_lapack
def test_numpy_lapack_binding_refuses_bad_arguments_before_the_call():
    calls = []
    factor = stepper._Dpttrf(lambda *args: calls.append("dpttrf"))
    substitute = stepper._Dpttrs(lambda *args: calls.append("dpttrs"))
    n = 12
    d, e = 4.0 * np.ones(n), -np.ones(n - 1)
    for bad in ((d.astype(np.float32), e), (d, e[:-1]), (d, np.repeat(e, 2)[::2]),
                (d.astype(complex), e), (list(d), e)):
        with pytest.raises(ValueError):
            factor(*bad)
    d_f, e_f, _ = stepper._dpttrf(d, e)
    for bad in ((d_f.astype(np.float32), e_f), (d_f, e_f[:-1]), (d_f.astype(complex), e_f),
                (d_f, np.repeat(e_f, 2)[::2])):
        with pytest.raises(ValueError):
            substitute(*bad, np.zeros((2, n)))
    wide = np.zeros((2 * n, 2))
    for bad in (np.zeros((2, n), np.float32), np.zeros((2, n), complex), np.zeros(2 * n + 1),
                wide[:, 0], np.zeros((n, 2), order="F"), list(np.zeros(2 * n))):
        with pytest.raises(ValueError):
            substitute(d_f, e_f, bad)
    assert calls == []
    x, info = substitute(d_f, e_f, np.zeros((2, 3, n // 3)))
    assert calls == ["dpttrs"] and info == 0 and x.shape == (2, 3, n // 3)


@numpy_lapack
def test_bulk_lu_builds_its_substitution_arguments_once(monkeypatch):
    # every solve of one LU passes the same factor arrays and both blocks,
    # so the binding builds their ctypes arguments at the first solve and
    # reuses them
    monkeypatch.setattr(stepper, "_dpttrs", stepper._Dpttrs(stepper._dpttrs.routine))
    grids = SolverConfig(n_x=16, n_z=17).grids()
    bulk = stepper._BulkLU(1.0 + 0.3 * np.cos(np.pi * grids.normal.nodes), 1e2, 1.0, grids)
    bulk.jump_response
    bound = stepper._dpttrs.bound
    assert all(map(operator.is_, bound[0], bulk.factors)) and bound[1] == 2
    rhs, dirichlet = np.ones(bulk.shape), np.ones(bulk.shape[:2])
    first = bulk.solve(rhs, dirichlet)
    assert stepper._dpttrs.bound is bound
    other = stepper._BulkLU(bulk.a_mean, 1e2, 1.0, grids)  # equal factors, new arrays
    assert same_bits(other.solve(rhs, dirichlet), first)
    assert stepper._dpttrs.bound is not bound


def test_temperature_step_far_field_continuum():
    # away from the interface-induced boundary layer the step agrees with
    # the exact backward-Euler heat decay cos(pi z) -> cos(pi z)/(1+pi^2 dt)
    errs = []
    for n_z in (17, 33):
        cfg = SolverConfig(dt=1e-3, n_x=8, n_z=n_z)
        grids = cfg.grids()
        z = grids.normal.nodes
        u_old = np.broadcast_to(np.cos(np.pi * z)[None, :], grids.shape).copy()
        u_new, *_ = solve_alone(np.zeros(8), np.zeros(8), u_old,
                                cfg, grids, cfg.cutoff())
        far = np.abs(z) >= 0.5
        exact = np.cos(np.pi * z[far]) / (1.0 + np.pi**2 * cfg.dt)
        errs.append(np.abs(u_new[:, far] - exact[None, :]).max())
    assert errs[0] < 1e-3
    assert errs[1] < errs[0]


def test_temperature_step_zero_state_is_exact(small_cfg, small_grids, small_cutoff):
    zeros = np.zeros(small_cfg.n_x)
    u_new, residual, lag_iters, _ = solve_alone(
        zeros, zeros, np.zeros(small_grids.shape), small_cfg, small_grids, small_cutoff)
    assert np.all(u_new == 0.0)
    assert residual == 0.0 and lag_iters == 1


def test_jump_response_is_positive_and_monotone(small_cfg, small_grids, small_cutoff):
    zeros = np.zeros(small_cfg.n_x)
    a_mean = coefficients(zeros, zeros, small_cutoff, small_grids,
                          rho_x=zeros, rho_xx=zeros).a.mean(axis=0)
    sigma = stepper._BulkLU(a_mean, 1.0 / small_cfg.dt, small_cfg.theta,
                            small_grids).jump_response
    assert sigma.shape == (small_cfg.n_x // 2 + 1,)
    assert np.all(sigma > 0)
    assert np.all(np.diff(sigma) > 0)  # stiffer response at higher wavenumber


def test_compatible_initial_temperature(small_cfg, small_grids, small_cutoff):
    x = small_grids.tangential.nodes
    rho0 = 0.05 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, small_cfg)
    mid = small_grids.normal.i_mid
    assert np.abs(u0[:, mid] - curvature(rho0)).max() < 1e-12
    # already steady: re-solving from u0 returns u0
    u_re, *_ = solve_alone(rho0, np.zeros_like(rho0), u0, small_cfg,
                           small_grids, small_cutoff, inv_dt=0.0)
    assert np.abs(u_re - u0).max() < 1e-12
    # the steady solve ignores cfg.theta (no old level exists at t = 0)
    u0_cn = compatible_initial_temperature(rho0, replace(small_cfg, theta=0.5))
    assert np.array_equal(u0, u0_cn)


def record_solves(monkeypatch):
    """The (iterations, GCR steps) of every temperature solve at theta = 1,
    appended to the list returned: each iteration measures its residual by
    one ``_interior_operator`` call, and a GCR step makes one more, for
    A z."""
    solves, calls = [], [0]
    real_operator, real_temperature = stepper._interior_operator, stepper.temperature_step

    def counting_operator(*args):
        calls[0] += 1
        return real_operator(*args)

    def temperature(*args, **kwargs):
        calls[0] = 0
        result = real_temperature(*args, **kwargs)
        solves.append((result[2], calls[0] - result[2]))
        return result

    monkeypatch.setattr(stepper, "_interior_operator", counting_operator)
    monkeypatch.setattr(stepper, "temperature_step", temperature)
    return solves


def steady_problem(amp, n_x, n_z):
    """(cfg, rho) of the steady solve at rho = amp (sin x + cos(2x) / 2)."""
    cfg = SolverConfig(n_x=n_x, n_z=n_z)
    x = cfg.grids().tangential.nodes
    return cfg, amp * (np.sin(x) + 0.5 * np.cos(2 * x))


def assert_steady(u0, rho, cfg):
    """u0's steady full residual, by the reference operator, is at most
    lin_tol, and its interface row holds the curvature of rho."""
    grids = cfg.grids()
    coef = coefficients(rho, np.zeros_like(rho), cfg.cutoff(), grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    L, scale, _ = reference_operator(u0, coef, grids)
    assert np.linalg.norm(L) / scale <= cfg.lin_tol
    assert np.abs(u0[:, grids.normal.i_mid] - curvature(rho)).max() <= cfg.trace_tol


@pytest.mark.parametrize("n_x, n_z", [(16, 17), (64, 65), (32, 257)])
@pytest.mark.parametrize("amp", [0.1, 0.15])
def test_compatible_initial_temperature_converges_where_the_lag_loop_stalls(monkeypatch, n_x,
                                                                           n_z, amp):
    # at amp = 0.1 the lag loop's alternating sweeps converge on their own
    # (32-36 lag iterations on these grids, no GCR step); at amp = 0.15
    # they stop contracting within five iterations, and the same loop goes
    # on by GCR steps along its sweeps
    expected = {(0.1, 16): (32, 0), (0.1, 64): (36, 0), (0.1, 32): (32, 0),
                (0.15, 16): (23, 18), (0.15, 64): (39, 35), (0.15, 32): (36, 32)}[amp, n_x]
    cfg, rho = steady_problem(amp, n_x, n_z)
    solves = record_solves(monkeypatch)
    u0 = compatible_initial_temperature(rho, cfg)
    assert solves == [expected]
    assert_steady(u0, rho, cfg)


@pytest.mark.parametrize("n_x, n_z, max_iters", [(16, 17, 28), (64, 65, 47), (32, 257, 46)])
def test_compatible_initial_temperature_converges_near_where_the_lag_map_degenerates(
        tmp_path, n_x, n_z, max_iters):
    # at amp = 0.17 (the lag map degenerates near 0.178) the GCR steps
    # still reach lin_tol, within the stated iterations, in a fresh process
    # that loads no scipy.sparse module
    src = str(Path(stepper.__file__).resolve().parents[1])
    out = tmp_path / "u0.npz"
    code = (f"import sys\nsys.path.insert(0, {src!r})\n"
            "import numpy as np\n"
            "from stefansim import stepper\n"
            "from stefansim.stepper import SolverConfig, compatible_initial_temperature\n"
            "solves, real = [], stepper.temperature_step\n"
            "stepper.temperature_step = lambda *a, **k: solves.append(real(*a, **k)) or solves[-1]\n"
            f"cfg = SolverConfig(n_x={n_x}, n_z={n_z})\n"
            "x = cfg.grids().tangential.nodes\n"
            "u0 = compatible_initial_temperature(0.17 * (np.sin(x) + 0.5 * np.cos(2 * x)), cfg)\n"
            f"np.savez({str(out)!r}, u0=u0, iters=solves[0][2])\n"
            "sys.exit('scipy.sparse' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "scipy.sparse was loaded"
    saved = np.load(out)
    assert int(saved["iters"]) <= max_iters
    cfg, rho = steady_problem(0.17, n_x, n_z)
    assert_steady(saved["u0"], rho, cfg)


def test_a_gcr_iteration_makes_one_forward_and_two_of_each_inverse_product(monkeypatch):
    # counts (derivatives, forward, inverse) of the ``RealTransforms``
    # products.  A lag iteration makes (1, 1, 1) up to its residual; past
    # the stall an iteration makes the sweep's forward product and the
    # inverse products of its direction z (z, and z_x stacked with z_xx),
    # (1, 1, 1) up to A z, then those of the new iterate, (1, 0, 1) up to
    # its measured residual; no 2-D numpy FFT
    cfg, rho = steady_problem(0.15, 64, 65)  # the sweeps stall at lag iteration 4
    ffts = count_transforms(monkeypatch, two_d_only=True)
    products = count_products(monkeypatch)
    at_operator = []  # the counts at each ``_interior_operator`` call
    real_operator = stepper._interior_operator

    def counting_operator(*args):
        at_operator.append(tuple(products[k] for k in sorted(products)))
        return real_operator(*args)

    monkeypatch.setattr(stepper, "_interior_operator", counting_operator)
    compatible_initial_temperature(rho, cfg)
    assert sorted(products) == ["derivatives", "forward", "inverse"]
    # zero's fields (derivatives, forward), then lag iteration 1's
    assert at_operator[0] == (2, 2, 1)
    steps = [tuple(b - a for a, b in zip(before, after, strict=True))
             for before, after in zip(at_operator, at_operator[1:])]
    assert steps == [(1, 1, 1)] * 3 + [(1, 1, 1), (1, 0, 1)] * 35
    assert ffts == {"rfft": 0, "irfft": 0}


def test_temperature_step_raises_when_lag_loop_stalls(monkeypatch, small_grids, small_cutoff):
    monkeypatch.setattr(SolverConfig, "lin_max_iter", 8)
    cfg = SolverConfig(dt=2.0, n_x=32, n_z=33)
    x = small_grids.tangential.nodes
    rho = 0.1 * np.sin(x)
    u_old = np.zeros(small_grids.shape)
    with pytest.raises(LinearSolveError) as exc:
        solve_alone(rho, np.zeros(32), u_old, cfg, small_grids, small_cutoff)
    assert exc.value.residual > cfg.lin_tol


def reference_operator(v, coef, grids):
    """Lap' + a d_zz - B d_xz - c d_z through the checked ``d_tangential``,
    interface row zeroed; returns (L v, termwise scale, (v_zz, v_xz, v_z))."""
    dz, mid = grids.normal.dz, grids.normal.i_mid
    v_zz = np.empty_like(v)
    v_zz[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / dz**2
    v_zz[:, 0] = 2.0 * (v[:, 1] - v[:, 0]) / dz**2
    v_zz[:, -1] = 2.0 * (v[:, -2] - v[:, -1]) / dz**2
    v_z = np.zeros_like(v)
    v_z[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * dz)
    v_xz = d_tangential(v_z, 1)
    terms = [d_tangential(v, 2), coef.a * v_zz, -coef.B * v_xz, -coef.c * v_z]
    for term in terms:
        term[:, mid] = 0.0
    return sum(terms), sum(np.linalg.norm(t) for t in terms), (v_zz, v_xz, v_z)


def reference_lag_loop(rho, rho_t, u_old, cfg, grids, cutoff, dirichlet, f_new, f_old,
                       alternate=True):
    """The lag loop transforming every field afresh: each lagged u_xz and
    each operator application goes through ``d_tangential``, and each
    transform is numpy's FFT.  Iteration 1 solves M u = b + N u_old; each
    later one subtracts from u its correction by the full residual r, in
    the physical layout: M~^-1 ((a_harmonic / a) r) at even iterations and
    M^-1 r at odd ones, or M^-1 r at every one unless ``alternate``.
    Returns (u, iterations)."""
    theta, inv_dt, mid = cfg.theta, 1.0 / cfg.dt, grids.normal.i_mid
    coef = coefficients(rho, rho_t, cutoff, grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    L_old, scale_old, _ = reference_operator(u_old, coef, grids)
    base = u_old * inv_dt + theta * f_new + (1.0 - theta) * (L_old + f_old)
    bulk = stepper._BulkLU(coef.a, inv_dt, theta, grids)
    dir_x = real_layout(np.fft.rfft(dirichlet))

    def solve(v, dir_values, harmonic=False):
        x = bulk.solve(real_layout(np.fft.rfft(v, axis=0)), dir_values, harmonic)
        return np.fft.irfft(complex_of(x), n=cfg.n_x, axis=0)

    _, _, (lag_zz, lag_xz, lag_z) = reference_operator(u_old, coef, grids)
    u_new = solve(base + theta * ((coef.a - coef.a.mean(axis=0)) * lag_zz - coef.B * lag_xz
                                  - coef.c * lag_z), dir_x)
    for it in range(1, cfg.lin_max_iter + 1):
        if it > 1:
            harmonic = alternate and it % 2 == 0
            weight = bulk.a_harmonic / coef.a if harmonic else 1.0
            u_new = u_new - solve(weight * r, np.zeros_like(dir_x), harmonic)
        L_new, scale_new, _ = reference_operator(u_new, coef, grids)
        r = (u_new - u_old) * inv_dt - theta * (L_new + f_new) - (1.0 - theta) * (L_old + f_old)
        r[:, mid] = 0.0
        scale = (inv_dt * max(np.linalg.norm(u_new), np.linalg.norm(u_old))
                 + theta * scale_new + (1.0 - theta) * scale_old
                 + np.linalg.norm(theta * f_new + (1.0 - theta) * f_old) + 1e-300)
        if np.linalg.norm(r) / scale <= cfg.lin_tol:
            return u_new, it
    raise AssertionError("reference lag loop did not converge")


def lag_loop_problem(theta):
    """A forced temperature solve at a non-flat interface that needs
    several lag iterations."""
    cfg = SolverConfig(n_x=32, n_z=33, dt=1e-3, theta=theta)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    x = grids.tangential.nodes[:, None]
    z = grids.normal.nodes[None, :]
    rho = 0.05 * np.sin(x[:, 0]) + 0.025 * np.cos(2 * x[:, 0])
    rho_t = 0.3 * np.cos(x[:, 0])
    u_old = (0.05 * np.cos(x) + 0.02) * np.cos(np.pi * z) + 0.01 * np.sin(2 * x) * z**2
    f_new = 0.1 * np.sin(x) * np.cos(np.pi * z)
    f_old = 0.08 * np.sin(x) * np.cos(np.pi * z) + 0.01
    dirichlet = curvature(rho) + 0.01 * np.cos(x[:, 0])
    return cfg, grids, cutoff, (rho, rho_t, u_old, dirichlet, f_new, f_old)


def run_lag_problem(cfg, grids, cutoff, data):
    rho, rho_t, u_old, dirichlet, f_new, f_old = data
    return solve_alone(rho, rho_t, u_old, cfg, grids, cutoff, dirichlet=dirichlet,
                       f_new=f_new, f_old=f_old)


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_temperature_step_matches_reference_lag_loop(theta):
    cfg, grids, cutoff, data = lag_loop_problem(theta)
    u, residual, lag_iters, _ = run_lag_problem(cfg, grids, cutoff, data)
    rho, rho_t, u_old, dirichlet, f_new, f_old = data
    u_ref, lag_ref = reference_lag_loop(rho, rho_t, u_old, cfg, grids, cutoff,
                                        dirichlet, f_new, f_old)
    assert lag_iters == lag_ref >= 3
    assert residual <= cfg.lin_tol
    assert np.abs(u - u_ref).max() <= 1e-13 * np.abs(u_ref).max()
    # the operator on a field without its solve's coefficients agrees too
    coef = coefficients(rho, rho_t, cutoff, grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    L, scale = bulk_operator(u_old, coef, grids)
    L_ref, scale_ref, _ = reference_operator(u_old, coef, grids)
    assert np.abs(L - L_ref).max() <= 1e-13 * np.abs(L_ref).max()
    assert scale == pytest.approx(scale_ref, rel=1e-13)


def test_alternating_sweeps_beat_the_mean_sweep_on_frozen_mms_coefficients():
    # the mms-column solve of the step from t = 0, on its frozen
    # coefficients (32 x 257, theta = 1/2), cold from u_old: the lagged
    # (a - a_mean) u_zz sets the mean sweep's contraction, which the
    # harmonic sweep, preconditioning a u_zz with an x-varying row weight,
    # does not share.  Measured: 10 lag iterations against 15 by the mean
    # sweep alone, and the two u within 3.5e-12 relative
    from stefansim.oracles import ManufacturedProblem

    cfg = SolverConfig(epsilon=1e-3, n_x=32, n_z=257, theta=0.5, dt=0.01, k_diag=0)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    problem = ManufacturedProblem(grids, cutoff, cfg.epsilon)
    u_old, rho_old = problem.initial_data()
    rho_new = problem.rho_exact(cfg.dt)
    f_new, g_dir, _ = problem.at(cfg.dt)
    data = (0.5 * (rho_new + rho_old), (rho_new - rho_old) / cfg.dt, u_old,
            curvature(rho_new) + g_dir, f_new, problem.at(0.0)[0])
    u, residual, lag_iters, _ = run_lag_problem(cfg, grids, cutoff, data)
    u_mean, mean_iters = reference_lag_loop(*data[:3], cfg, grids, cutoff, *data[3:],
                                            alternate=False)
    assert residual <= cfg.lin_tol
    assert (lag_iters, mean_iters) == (10, 15)
    assert np.abs(u - u_mean).max() <= 1e-10 * np.abs(u_mean).max()


def test_a_one_lag_solve_makes_one_substitution_and_no_harmonic_weight(monkeypatch,
                                                                       forced_step_problem):
    # a solve that its first lag iteration ends (most of a decay's) makes
    # one substitution and never builds the harmonic sweep's weight
    # a_harmonic / a; a longer one builds it once, at its first harmonic
    # sweep (lag iteration 2), and makes one substitution per lag iteration
    # (no GCR step here).  A solve reads the LU's a_harmonic only to build
    # that weight, so the reads count the weights built.
    counts = {"substitutions": 0, "weights": 0}
    real_substitution = stepper._thomas_batched
    real_temperature = stepper.temperature_step
    solves = []  # (lag iterations, substitutions, weights) of each solve

    def substitution(*args):
        counts["substitutions"] += 1
        return real_substitution(*args)

    def read_a_harmonic(self):
        counts["weights"] += 1
        return self.__dict__["a_harmonic"]

    def set_a_harmonic(self, value):
        self.__dict__["a_harmonic"] = value

    def temperature(*args, **kwargs):
        counts.update(substitutions=0, weights=0)
        result = real_temperature(*args, **kwargs)
        solves.append((result[2], counts["substitutions"], counts["weights"]))
        return result

    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    rho0 = 1e-4 * np.sin(cfg.grids().tangential.nodes)
    u0 = compatible_initial_temperature(rho0, cfg)
    forced_cfg, forced_level, forcing = forced_step_problem(0.5)
    monkeypatch.setattr(stepper, "_thomas_batched", substitution)
    monkeypatch.setattr(stepper._BulkLU, "a_harmonic", property(read_a_harmonic, set_a_harmonic),
                        raising=False)
    monkeypatch.setattr(stepper, "temperature_step", temperature)
    run(u0, rho0, cfg, 20 * cfg.dt)
    assert sum(lag == 1 for lag, *_ in solves) >= len(solves) // 2
    fixed_point_step(forced_level, forced_cfg, t_new=forced_cfg.dt, forcing=forcing,
                     **dt_setup(forced_level, forced_cfg))
    assert any(lag == 2 for lag, *_ in solves) and any(lag >= 4 for lag, *_ in solves)
    assert all((subs, weights) == (lag, int(lag >= 2)) for lag, subs, weights in solves)


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_temperature_step_does_not_depend_on_memory_layout(layout):
    cfg, grids, cutoff, data = lag_loop_problem(0.5)
    rho, rho_t, u_old, dirichlet, f_new, f_old = data

    def relaid(v):
        if layout == "fortran":
            return np.asfortranarray(v)
        wide = np.zeros((v.shape[0], 2 * v.shape[1]))
        wide[:, ::2] = v
        return wide[:, ::2]

    bulk = [relaid(v) for v in (u_old, f_new, f_old)]
    assert not any(v.flags.c_contiguous for v in bulk)
    u, residual, lag_iters, _ = run_lag_problem(cfg, grids, cutoff, data)
    u_re, residual_re, lag_re, _ = run_lag_problem(
        cfg, grids, cutoff, (rho, rho_t, bulk[0], dirichlet, bulk[1], bulk[2]))
    assert lag_re == lag_iters
    assert residual_re == pytest.approx(residual, rel=1e-8)
    assert np.abs(u_re - u).max() <= 1e-13 * np.abs(u).max()
    coef = coefficients(rho, rho_t, cutoff, grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    L, scale = bulk_operator(u_old, coef, grids)
    L_re, scale_re = bulk_operator(bulk[0], coef, grids)
    assert np.abs(L_re - L).max() <= 1e-13 * np.abs(L).max()
    assert scale_re == pytest.approx(scale, rel=1e-13)


def test_temperature_step_returns_an_owned_u(monkeypatch):
    # u is the inverse product's own array, shared with no field; the
    # returned fields' xz is taken in place of u_x, so xx and xz share
    # the one stacked buffer and hold no dead u_x
    cfg, grids, cutoff, data = lag_loop_problem(0.5)
    built, stacked = [], []
    real_inverse, real_derivatives = RealTransforms.inverse, RealTransforms.derivatives

    def recording_inverse(self, *args):
        built.append(real_inverse(self, *args))
        return built[-1]

    def recording_derivatives(self, *args):
        stacked.append(real_derivatives(self, *args))
        return stacked[-1]

    monkeypatch.setattr(RealTransforms, "inverse", recording_inverse)
    monkeypatch.setattr(RealTransforms, "derivatives", recording_derivatives)
    u, _, _, fields = run_lag_problem(cfg, grids, cutoff, data)
    assert u.flags.owndata and u.base is None
    assert any(a is u for a in built)
    assert fields.hat.dtype == complex and fields.hat.flags.owndata
    assert not any(np.shares_memory(u, a) for a in stacked + list(fields) + list(data))
    buffer = fields.xx.base
    assert fields.xz.base is buffer and buffer.size == 2 * u.size
    assert np.shares_memory(buffer, stacked[-1])


def count_products(monkeypatch):
    """Count the calls of each ``RealTransforms`` product: ``forward``,
    ``inverse`` and ``derivatives``."""
    counts = dict.fromkeys(("forward", "inverse", "derivatives"), 0)
    for name in counts:
        real = getattr(RealTransforms, name)

        def counting(self, *args, _real=real, _name=name):
            counts[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(RealTransforms, name, counting)
    return counts


def count_transforms(monkeypatch, two_d_only=False):
    """Count the calls of np.fft.rfft and np.fft.irfft (with
    ``two_d_only``, only those on bulk fields: arrays of two or more axes,
    not counting the leading axis of a batch transformed along axis 1, so
    that a batch of interface derivatives is not a bulk transform)."""
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        real = getattr(np.fft, name)

        def counting(a, *args, _real=real, _name=name, **kwargs):
            if not two_d_only or np.ndim(a) - (kwargs.get("axis") == 1) >= 2:
                counts[_name] += 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return counts


def test_temperature_step_transforms_each_iterate_once(monkeypatch):
    # one forward product (the right-hand side) and two inverse ones (u,
    # and u_x with u_xx stacked; u_xz is d_z of u_x) per lag iteration, plus
    # u_old's fields (one forward and one stacked inverse); the Dirichlet
    # data's rfft is the one numpy FFT, on an interface row; the jump
    # response makes none
    cfg, grids, cutoff, data = lag_loop_problem(0.5)
    coef = coefficients(data[0], data[1], cutoff, grids,
                        rho_x=d_tangential(data[0], 1), rho_xx=d_tangential(data[0], 2))
    rho, rho_t, u_old, dirichlet, f_new, f_old = data
    rx = d_tangential(rho, 1)
    norm = EnergyNormK0(rx, *norm_weights(rho, rx, cutoff, grids), cfg)
    ffts = count_transforms(monkeypatch)
    products = count_products(monkeypatch)
    step = prepare_step(coef.a, u_old, f_new, f_old, 1.0 / cfg.dt, cfg.theta, grids,
                        fp_norm=norm)
    step.bulk.jump_response
    u, _, lag_iters, fields = temperature_step(step, coef, dirichlet=dirichlet,
                                               **cold_start(step))
    assert lag_iters >= 3
    assert products == {"forward": lag_iters + 1, "inverse": lag_iters,
                        "derivatives": lag_iters + 1}
    assert ffts == {"rfft": 1, "irfft": 0}
    # the returned fields carry u's Fourier coefficients: those of its solve
    hat = np.fft.rfft(u, axis=0)
    assert np.abs(fields.hat - hat).max() <= 1e-13 * np.abs(hat).max()

    # a warm solve from u on the same step: the exit rule's norm of each
    # lag update works on the coefficients the solve holds, so only the lag
    # iterations and the Dirichlet data transform
    x = grids.tangential.nodes
    ffts.update(rfft=0, irfft=0)
    products.update(forward=0, inverse=0, derivatives=0)
    _, residual, warm_iters, _ = temperature_step(
        step, coef, dirichlet=dirichlet + 1e-6 * np.cos(x), start=(u, fields),
        res_tol=cfg.lin_tol, update_tol=stepper.WARM_FP_FRACTION * 1e-9)
    assert residual <= cfg.lin_tol and warm_iters >= 2
    assert products == dict.fromkeys(("forward", "inverse", "derivatives"), warm_iters)
    assert ffts == {"rfft": 1, "irfft": 0}


def test_temperature_step_rejects_a_non_finite_iterate(monkeypatch, small_cfg, small_grids,
                                                       small_cutoff):
    # the iterate's residual is non-finite, so the loop searches u_new and
    # names the lag iteration and the entry (an inf times the transform
    # matrices' zeros makes numpy warn on the way, as it should)
    zeros = np.zeros(small_cfg.n_x)
    for bad in (np.nan, np.inf):
        u_old = np.zeros(small_grids.shape)
        u_old[5, 3] = bad
        with (pytest.raises(NonFiniteFieldError, match=r"lag iteration 1\): non-finite entry"),
              np.errstate(invalid="ignore")):
            solve_alone(zeros, zeros, u_old, small_cfg, small_grids, small_cutoff)
    # a NaN on the interface row alone, which the residual field leaves out,
    # still reaches the residual through its neighbours' stencils
    mid, real_inverse = small_grids.normal.i_mid, RealTransforms.inverse

    def corrupting_inverse(self, x):
        u = real_inverse(self, x)
        u[4, mid] = np.nan
        return u

    monkeypatch.setattr(RealTransforms, "inverse", corrupting_inverse)
    rng = np.random.default_rng(2)
    with pytest.raises(NonFiniteFieldError,
                       match=rf"lag iteration 1\): non-finite entry at index \(4, {mid}\)"):
        solve_alone(zeros, zeros, rng.standard_normal(small_grids.shape), small_cfg, small_grids,
                    small_cutoff)


# ------------------------------------------------------ interface update

def rho_transforms(rho):
    """interface_step's rho_x and rho_hat keywords for the iterate rho."""
    return {"rho_x": d_tangential(rho, 1), "rho_hat": np.fft.rfft(rho)}


def unstabilized(n_x):
    """A zero jump response: the plain regularized update."""
    return {"jump_response": np.zeros(n_x // 2 + 1)}


def accepted(rho, cfg):
    """The level of the accepted interface rho (with u = 0), whose rho and
    rfft ``interface_step`` reads."""
    return make_level(0.0, np.zeros(cfg.grids().shape), rho, cfg)


def test_interface_step_explicit_forms(small_grids):
    n_x = small_grids.tangential.n_x
    x = small_grids.tangential.nodes
    u_zero = np.zeros(small_grids.shape)
    zeros = np.zeros(n_x)
    base = 0.02 * np.cos(2 * x)

    cfg = SolverConfig(epsilon=0.0, dt=1e-2, n_x=n_x, n_z=small_grids.normal.n_z)
    rho_new = interface_step(u_zero, accepted(base, cfg), cfg,
                             jump_forcing=np.sin(x), **rho_transforms(zeros),
                             **unstabilized(n_x))
    assert np.abs((rho_new - base) / cfg.dt - np.sin(x)).max() < 1e-13
    assert np.abs(rho_new - base - cfg.dt * np.sin(x)).max() < 1e-14

    cfg1 = SolverConfig(epsilon=1.0, dt=1e-2, n_x=n_x, n_z=small_grids.normal.n_z)
    rho_new = interface_step(u_zero, accepted(base, cfg1), cfg1,
                             jump_forcing=np.sin(x), **rho_transforms(zeros),
                             **unstabilized(n_x))
    # (1 + eps k^4) at k=1
    assert np.abs((rho_new - base) / cfg1.dt - 0.5 * np.sin(x)).max() < 1e-13
    rho_new = interface_step(u_zero, accepted(base, cfg1), cfg1,
                             jump_forcing=np.full(n_x, 0.4), **rho_transforms(zeros),
                             **unstabilized(n_x))
    assert np.abs((rho_new - base) / cfg1.dt - 0.4).max() < 1e-14  # the mean mode is never damped


def test_interface_step_theta_blends_right_hand_sides(small_grids):
    n_x = small_grids.tangential.n_x
    x = small_grids.tangential.nodes
    cfg = SolverConfig(theta=0.5, dt=1e-2, n_x=n_x, n_z=small_grids.normal.n_z)
    rho_new = interface_step(np.zeros(small_grids.shape), accepted(np.zeros(n_x), cfg),
                             cfg, jump_forcing=np.sin(x), rhs_old=3.0 * np.sin(x),
                             **rho_transforms(np.zeros(n_x)), **unstabilized(n_x))
    assert np.abs(rho_new / cfg.dt - 2.0 * np.sin(x)).max() < 1e-13


def test_interface_step_stabilization_preserves_fixed_points(small_grids):
    # when the plain regularized update (a zero jump response) would return
    # rho_m itself, the stabilized one must too (the model term cancels at
    # the fixed point)
    n_x = small_grids.tangential.n_x
    x = small_grids.tangential.nodes
    cfg = SolverConfig(epsilon=0.0, dt=1e-2, n_x=n_x, n_z=small_grids.normal.n_z)
    forcing = np.sin(x) + 0.2 * np.cos(3 * x)
    rho_m = cfg.dt * forcing  # = rho_base + dt * rhs with rho_base = 0
    sigma = 5.0 + np.arange(n_x // 2 + 1, dtype=float)
    rho_new = interface_step(np.zeros(small_grids.shape), accepted(np.zeros(n_x), cfg),
                             cfg, jump_forcing=forcing, jump_response=sigma,
                             **rho_transforms(rho_m))
    assert np.abs(rho_new - rho_m).max() < 1e-15
    assert np.abs(rho_new / cfg.dt - forcing).max() < 1e-13


# ------------------------------------------------------------ fixed point

def test_fixed_point_flat_state_converges_immediately(small_cfg, small_grids):
    rho = np.full(small_cfg.n_x, 0.1)
    state = make_level(0.0, np.zeros(small_grids.shape), rho, small_cfg)
    new_state, report = fixed_point_step(state, small_cfg, t_new=small_cfg.dt,
                                         **dt_setup(state, small_cfg))
    assert report.inner_iters == 1
    assert np.all(new_state.u == 0.0)
    assert np.abs(new_state.rho - 0.1).max() < 1e-15
    assert new_state.t == small_cfg.dt


def test_fixed_point_contracts_after_first_iterate(small_grids):
    cfg = SolverConfig(dt=1e-3, n_x=32, n_z=33, k_diag=0)
    x = small_grids.tangential.nodes
    rho0 = 0.05 * np.sin(x)
    level = make_level(0.0, compatible_initial_temperature(rho0, cfg), rho0, cfg)
    _, report = fixed_point_step(level, cfg, t_new=cfg.dt, **dt_setup(level, cfg))
    assert report.inner_iters >= 2
    assert len(report.fp_norms) == report.inner_iters
    # the first ratio overshoots (the seed iterate lags rho_t), later ones
    # must all contract
    norms = report.fp_norms
    assert all(b / a < 1.0 for a, b in zip(norms[1:], norms[2:]))
    assert report.fp_norms[-1] <= cfg.fp_tol
    assert report.lin_residual <= cfg.lin_tol
    assert report.lag_iters >= report.inner_iters


def test_fixed_point_tall_manufactured_column_converges():
    # At n_z = 257 the Dirichlet row is much smaller than its neighbour's
    # coupling to it; factoring with that row left in lets partial pivoting
    # swap the two, and the first step then stalls above fp_tol.
    from stefansim.oracles import ManufacturedProblem

    cfg = SolverConfig(epsilon=1e-3, n_x=32, n_z=257, theta=0.5, dt=0.01, k_diag=0)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    problem = ManufacturedProblem(grids, cutoff, cfg.epsilon)
    u0, rho0 = problem.initial_data()
    level = make_level(0.0, u0, rho0, cfg)
    _, report = fixed_point_step(level, cfg, forcing=problem, t_new=cfg.dt,
                                 **dt_setup(level, cfg))
    assert report.inner_iters <= 6
    assert report.fp_norms[-1] <= cfg.fp_tol


@pytest.mark.parametrize("theta, predicted", [(1.0, False), (0.5, False), (1.0, True), (0.5, True)],
                         ids=["1.0", "0.5", "1.0-predicted", "0.5-predicted"])
def test_fixed_point_step_measures_in_the_norm_it_is_handed(monkeypatch, theta, predicted,
                                                           forced_step_problem):
    # the interface's weights are taken once, by the dt's set-up (here
    # ``dt_setup``, in a run ``run``; see
    # test_run_builds_one_fixed_point_norm_per_dt): the step makes no
    # ``norm_weights`` and no ``EnergyNormK0`` call, whether iterate 1 starts
    # from state.rho or from the predictor through the level one dt back,
    # at every theta, and every fixed-point difference and warm exit test
    # of the step measures in the one norm it was handed
    cfg, state, forcing = forced_step_problem(theta)
    setup = dt_setup(state, cfg)
    earlier = ()
    if predicted:  # the predictor is 1.01 state.rho, up to roundoff
        earlier = (make_level(state.t - cfg.dt, 0.99 * state.u, 0.99 * state.rho, cfg),)
    weights, built, measured = [], [], []
    real_weights, real_built, real_measure = (stepper.norm_weights, stepper.EnergyNormK0,
                                              stepper.state_energy_k0)
    monkeypatch.setattr(stepper, "norm_weights",
                        lambda *args: weights.append(args) or real_weights(*args))
    monkeypatch.setattr(stepper, "EnergyNormK0",
                        lambda *args: built.append(args) or real_built(*args))
    monkeypatch.setattr(stepper, "state_energy_k0",
                        lambda u, u_hat, rho_hat, norm: measured.append(norm)
                        or real_measure(u, u_hat, rho_hat, norm))
    _, report = fixed_point_step(state, cfg, t_new=cfg.dt, forcing=forcing, earlier=earlier,
                                 **setup)
    assert report.inner_iters >= 3
    assert weights == [] and built == []
    assert len(measured) > report.inner_iters
    assert all(norm is setup["fp_norm"] for norm in measured)


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_transforms_bulk_fields_only_in_lag_iterations(monkeypatch, theta,
                                                                       forced_step_problem):
    # the only bulk transforms of a step are products: 1 forward and 2
    # inverse per lag iteration (u, and u_x stacked with u_xx), 2 inverse
    # (u and u_x) for the correction of iterate 1's temperature, and u_old's,
    # once per level, as ``make_level`` builds the old level here (one
    # forward and one stacked inverse; run's levels carry them, see
    # test_run_transforms_each_level_once); the fixed-point norms and the
    # warm exit rule work on the coefficients the solves return, and no
    # numpy FFT touches a bulk field
    cfg, state, forcing = forced_step_problem(theta)
    setup = dt_setup(state, cfg)
    ffts = count_transforms(monkeypatch, two_d_only=True)
    products = count_products(monkeypatch)
    level = make_level(state.t, state.u, state.rho, cfg)
    _, report = fixed_point_step(level, cfg, t_new=cfg.dt, forcing=forcing, **setup)
    assert report.inner_iters >= 3
    lag = report.lag_iters
    assert products == {"forward": lag + 1, "inverse": lag + 1, "derivatives": lag + 2}
    assert ffts == {"rfft": 0, "irfft": 0}


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_measures_every_norm_through_state_energy_k0(monkeypatch, theta,
                                                                     forced_step_problem):
    # one call per iterate (the fixed-point difference, interface terms
    # included) and one per warm exit check (a bulk-only lag update, made
    # inside the solve): the benchmark traces the norm by this name
    cfg, state, forcing = forced_step_problem(theta)
    real_norm, real_temperature = stepper.state_energy_k0, stepper.temperature_step
    calls, solves, inside = [], [], [False]  # calls: (inside a solve, bulk-only)

    def counting_norm(u, u_hat, rho_hat, norm):
        calls.append((inside[0], rho_hat is None))
        return real_norm(u, u_hat, rho_hat, norm)

    def counting_temperature(*args, **kwargs):
        start, inside[0] = len(calls), True
        result = real_temperature(*args, **kwargs)
        inside[0] = False
        solves.append((len(calls) - start, result[2]))  # (checks, lag iterations)
        return result

    monkeypatch.setattr(stepper, "state_energy_k0", counting_norm)
    monkeypatch.setattr(stepper, "temperature_step", counting_temperature)
    _, report = fixed_point_step(state, cfg, t_new=cfg.dt, **dt_setup(state, cfg),
                                 forcing=forcing)
    checks = sum(n for n, _ in solves)
    assert report.inner_iters >= 3 and len(solves) == report.inner_iters
    assert len(calls) == report.inner_iters + checks
    # iterate 1 starts cold and makes no check; every warm solve makes at
    # least one and at most one per lag iteration
    assert solves[0][0] == 0
    assert all(1 <= n <= lag for n, lag in solves[1:])
    # the checks are bulk-only and made inside the solve; the iterate norms are not
    assert sum(bulk_only for _, bulk_only in calls) == checks
    assert all(in_solve == bulk_only for in_solve, bulk_only in calls)


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_never_transforms_the_old_interface(monkeypatch, theta,
                                                             forced_step_problem):
    # every iterate's interface update reads the old level's rfft of rho
    # from the level: no forward transform of that interface in the step.
    # The set-up transforms iterate 1's interface once, and without an
    # earlier level that interface holds the old one's values; with one
    # (here 0.99 of the old level) it is the predictor, 1.01 level.rho
    cfg, level, forcing = forced_step_problem(theta)
    setup = dt_setup(level, cfg)
    earlier = make_level(level.t - cfg.dt, 0.99 * level.u, 0.99 * level.rho, cfg)
    old_rho_transforms, real_rfft = [0], np.fft.rfft

    def recording_rfft(a, *args, **kwargs):
        if np.shape(a) == level.rho.shape and np.array_equal(a, level.rho):
            old_rho_transforms[0] += 1
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    _, report = fixed_point_step(level, cfg, t_new=cfg.dt, forcing=forcing, **setup)
    assert report.inner_iters >= 3
    assert old_rho_transforms == [1]
    _, report = fixed_point_step(level, cfg, t_new=cfg.dt, forcing=forcing,
                                 earlier=(earlier,), **setup)
    assert report.inner_iters >= 3
    assert old_rho_transforms == [1]


def cold_reference_step(state, cfg, forcing):
    """The fixed-point loop with every iterate solved afresh: the bulk
    operator factored at the iterate, its jump response recomputed, and the
    lag loop started from u_old."""
    theta, dt, grids, cutoff = cfg.theta, cfg.dt, cfg.grids(), cfg.cutoff()
    f_new, g_dir, j_new = forcing.at(state.t + dt)
    f_old, _, j_old = forcing.at(state.t)
    rhs_old = ((1.0 + d_tangential(state.rho, 1) ** 2)
               * jump_normal_derivative(state.u, grids) + j_old)
    u_m, rho_m = state.u, state.rho
    for _ in range(cfg.fp_max_iter):
        rho_t = (rho_m - state.rho) / dt
        rho_eff = theta * rho_m + (1.0 - theta) * state.rho
        coef = coefficients(rho_eff, rho_t, cutoff, grids,
                            rho_x=d_tangential(rho_eff, 1), rho_xx=d_tangential(rho_eff, 2))
        step = prepare_step(coef.a, state.u, f_new, f_old, 1.0 / dt, theta, grids)
        u_next, *_ = temperature_step(step, coef,
                                      dirichlet=curvature(rho_m) + g_dir, **cold_start(step))
        sigma = step.bulk.jump_response
        rho_next = interface_step(u_next, state, cfg,
                                  jump_forcing=j_new, rhs_old=rhs_old,
                                  jump_response=sigma, **rho_transforms(rho_m))
        rx = d_tangential(rho_m, 1)
        norm = EnergyNormK0(rx, *norm_weights(rho_m, rx, cutoff, grids), cfg)
        du, drho = u_next - u_m, rho_next - rho_m
        diff = np.sqrt(state_energy_k0(du, np.fft.rfft(du, axis=0), np.fft.rfft(drho), norm))
        u_m, rho_m = u_next, rho_next
        if diff <= cfg.fp_tol:
            return u_m, rho_m
    raise AssertionError("cold reference loop did not converge")


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_warm_started_step_matches_cold_reference_loop(theta, forced_step_problem):
    cfg, state, forcing = forced_step_problem(theta)
    new_state, report = fixed_point_step(state, cfg, t_new=cfg.dt, **dt_setup(state, cfg),
                                         forcing=forcing)
    u_ref, rho_ref = cold_reference_step(state, cfg, forcing)
    assert report.inner_iters >= 3
    assert np.abs(new_state.u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
    assert np.abs(new_state.rho - rho_ref).max() <= 1e-10 * np.abs(rho_ref).max()


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_dirichlet_data_is_the_curvature_of_the_iterate(monkeypatch, theta):
    cfg = SolverConfig(dt=1e-3, n_x=32, n_z=33, k_diag=0, theta=theta)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    x = grids.tangential.nodes
    rho0 = 0.05 * np.sin(x) + 0.02 * np.cos(3 * x)
    u0 = compatible_initial_temperature(rho0, cfg)
    # the iterates the step feeds into its curvature: rho0, then each
    # (mixed) next iterate
    seen_dirichlet, seen_rho = [], [rho0]
    real_temperature, real_next = stepper.temperature_step, stepper._Secant.next

    def recording_temperature(*args, **kwargs):
        seen_dirichlet.append(kwargs["dirichlet"])
        return real_temperature(*args, **kwargs)

    def recording_next(self, *args):
        seen_rho.append(real_next(self, *args))
        return seen_rho[-1]

    monkeypatch.setattr(stepper, "temperature_step", recording_temperature)
    monkeypatch.setattr(stepper._Secant, "next", recording_next)
    level = make_level(0.0, u0, rho0, cfg)
    _, report = fixed_point_step(level, cfg, t_new=cfg.dt, **dt_setup(level, cfg))
    assert len(seen_dirichlet) == len(seen_rho) == report.inner_iters >= 3
    for dirichlet, rho_m in zip(seen_dirichlet, seen_rho):
        assert np.array_equal(dirichlet.view(np.uint64), curvature(rho_m).view(np.uint64))


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_accepts_the_last_unmixed_interface(monkeypatch, theta,
                                                             forced_step_problem):
    # the stopping test reads the unmixed pair, so the accepted rho is an
    # interface update itself, while the iterates fed back are mixed
    cfg, state, forcing = forced_step_problem(theta)
    images, iterates = [], []
    real_interface, real_next = stepper.interface_step, stepper._Secant.next

    def recording_interface(*args, **kwargs):
        images.append(real_interface(*args, **kwargs))
        return images[-1]

    def recording_next(self, *args):
        iterates.append(real_next(self, *args))
        return iterates[-1]

    monkeypatch.setattr(stepper, "interface_step", recording_interface)
    monkeypatch.setattr(stepper._Secant, "next", recording_next)
    new_state, report = fixed_point_step(state, cfg, t_new=cfg.dt, **dt_setup(state, cfg),
                                         forcing=forcing)
    assert len(images) == len(iterates) + 1 == report.inner_iters >= 3
    assert np.array_equal(new_state.rho.view(np.uint64), images[-1].view(np.uint64))
    assert any(not np.array_equal(rho_m, g) for rho_m, g in zip(iterates, images))


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_starts_iterate_2_from_a_corrected_temperature(monkeypatch, theta,
                                                                        forced_step_problem):
    # iterate 1's u, solved with the first Dirichlet data, is corrected by
    # the step's unit Dirichlet response: the start of iterate 2 holds
    # iterate 2's Dirichlet data on its interface row, and its lagged
    # fields and rfft are those of its u
    cfg, state, forcing = forced_step_problem(theta)
    grids, mid = cfg.grids(), cfg.grids().normal.i_mid
    calls, real_temperature = [], stepper.temperature_step

    def recording_temperature(step, coef, *, dirichlet, start, res_tol, update_tol):
        result = real_temperature(step, coef, dirichlet=dirichlet, start=start, res_tol=res_tol,
                                  update_tol=update_tol)
        calls.append((dirichlet, start, result[0]))
        return result

    monkeypatch.setattr(stepper, "temperature_step", recording_temperature)
    _, report = fixed_point_step(state, cfg, t_new=cfg.dt, **dt_setup(state, cfg),
                                 forcing=forcing)
    assert report.inner_iters == len(calls) >= 3
    dirichlet, (u, fields), _ = calls[1]
    u_1 = calls[0][2]
    assert not np.array_equal(u, u_1)
    assert np.abs(u[:, mid] - dirichlet).max() <= 1e-14 * np.abs(dirichlet).max()
    assert np.abs(u_1[:, mid] - dirichlet).max() > 1e-10 * np.abs(dirichlet).max()
    hat = np.fft.rfft(u, axis=0)
    assert np.abs(fields.hat - hat).max() <= 1e-14 * np.abs(hat).max()
    assert fields.xx is None  # a lag loop's start reads no xx
    for got, want in zip(fields[1:4], stepper._lagged_fields(u, d_tangential(u, 1), grids),
                          strict=True):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # later iterates start from the solve before, uncorrected
    assert all(start[0] is out for (_, start, _), (_, _, out) in zip(calls[2:], calls[1:]))


def rough_initial_data():
    """The rough-mass-diag workload's scenario: generic-mass data plus
    band-limited noise of amplitude 0.02, epsilon = 1e-4, k_diag = 2."""
    scen = parse_config(Path(__file__).resolve().parents[1] / "configs" / "generic-mass.ini")
    scen = replace(scen, rho_random_amp=0.02,
                   solver=replace(scen.solver, epsilon=1e-4, k_diag=2))
    return scen.solver, *build_initial_data(scen)


def test_fixed_point_step_first_rough_step_is_short():
    # plain successive substitution took 19 iterates here
    cfg, u0, rho0 = rough_initial_data()
    level = make_level(0.0, u0, rho0, cfg)
    _, report = fixed_point_step(level, cfg, t_new=cfg.dt, **dt_setup(level, cfg))
    assert report.inner_iters <= 8


def test_anderson_mixing_solves_a_linear_map_of_dimension_two():
    # the secant step is exact on an affine map a x + b with scalar a: the
    # first mixed iterate (the second returned) is its fixed point in R^2
    a, b = 0.8, np.array([1.0, -0.5])
    fixed = b / (1.0 - a)
    mixer, rho = stepper._Secant(), np.zeros(2)
    for _ in range(2):
        g = a * rho + b
        rho = mixer.next(rho, g, np.linalg.norm(g - rho))
    assert mixer.mixed
    assert np.abs(rho - fixed).max() <= 1e-12 * np.abs(fixed).max()


def test_anderson_mixing_drops_its_history():
    mixer, shift = stepper._Secant(), np.array([1.0, 2.0, 3.0])
    # residuals that do not change (df . df = 0) give the plain image
    for rho in (np.zeros(3), np.ones(3)):
        assert np.array_equal(mixer.next(rho, rho + shift, 1.0), rho + shift)
    assert not mixer.mixed
    # a mixed iterate whose difference grows gives the plain image, and
    # the next iterate mixes against it
    mixer = stepper._Secant()
    mixer.next(np.zeros(3), shift, 1.0)
    mixer.next(np.zeros(3), np.array([0.0, 1.0, 0.0]), 0.5)
    assert mixer.mixed
    assert np.array_equal(mixer.next(np.zeros(3), shift, 2.0), shift)
    assert not mixer.mixed
    assert not np.array_equal(mixer.next(np.zeros(3), 0.5 * shift, 1.0), 0.5 * shift)
    assert mixer.mixed


def test_fixed_point_warns_on_an_under_resolved_iterate(small_grids):
    cfg = SolverConfig(dt=1e-3, n_x=32, n_z=33, k_diag=0)
    x = small_grids.tangential.nodes
    rho = 0.01 * np.sin(x) + 1e-5 * np.cos(12 * x)  # mode 12 lies in the top third
    state = make_level(0.0, np.zeros(small_grids.shape), rho, cfg)
    setup = dt_setup(state, cfg)
    with pytest.warns(ResolutionWarning, match="under-resolved"):
        fixed_point_step(state, cfg, t_new=cfg.dt, **setup)


def test_fixed_point_error_carries_last_iterate_info(monkeypatch, small_grids):
    monkeypatch.setattr(SolverConfig, "fp_max_iter", 4)
    cfg = SolverConfig(dt=50.0, n_x=32, n_z=33, k_diag=0)
    x = small_grids.tangential.nodes
    state = make_level(0.0, np.zeros(small_grids.shape), 0.05 * np.sin(x), cfg)
    setup = dt_setup(state, cfg)
    with pytest.raises(FixedPointError) as exc:
        fixed_point_step(state, cfg, t_new=cfg.dt, **setup)
    assert exc.value.last_norm > cfg.fp_tol
    assert exc.value.last_ratio is not None


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_measures_its_trace_gap(theta, forced_step_problem):
    # max |u(., 0) - kappa(rho) - g| of the accepted state, g the step's own
    # Dirichlet shift, from the transform of rho the step already holds
    cfg, state, forcing = forced_step_problem(theta)
    new_state, report = fixed_point_step(state, cfg, t_new=cfg.dt, **dt_setup(state, cfg),
                                         forcing=forcing)
    g_dir = forcing.at(new_state.t)[1]
    gap = np.abs(new_state.u[:, cfg.grids().normal.i_mid] - curvature(new_state.rho)
                 - g_dir).max()
    assert report.trace_gap == gap <= cfg.trace_tol


# -------------------------------------------------------------- run driver

def test_run_zero_horizon_reports_initial_state_only():
    cfg = SolverConfig(n_x=16, n_z=17, k_diag=0)
    x = cfg.grids().tangential.nodes
    seen = []
    res = run(np.zeros(cfg.grids().shape), 0.01 * np.sin(x), cfg, 0.0,
              callbacks=(lambda state, report: seen.append(state.t),))
    assert len(res.reports) == 1 and res.state.t == 0.0
    assert seen == []
    assert res.reports[0].cons_residual == 0.0


def test_run_step_count_and_callbacks():
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    seen = []
    res = run(np.zeros(cfg.grids().shape), 0.01 * np.sin(x), cfg, 5 * cfg.dt,
              callbacks=(lambda state, report: seen.append(state.t),))
    assert len(res.reports) == 6
    assert res.state.t == pytest.approx(5 * cfg.dt, rel=1e-12)
    assert seen == [pytest.approx((j + 1) * cfg.dt) for j in range(5)]


def test_run_halves_dt_on_failure_and_persists(monkeypatch):
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 2)
    stall_above(monkeypatch, HALVING_STALL_DT)
    cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = 0.1 * np.sin(x)
    res = run(np.zeros(cfg.grids().shape), rho0, cfg, 0.08)
    assert res.cfg.dt == pytest.approx(0.01)
    assert len(res.reports) == 9  # 8 accepted steps at the quartered dt
    assert res.state.t == pytest.approx(0.08)
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 0)
    with pytest.raises(LinearSolveError):
        run(np.zeros(cfg.grids().shape), rho0, cfg, 0.08)


@pytest.mark.parametrize("case", ["decay", "halving"])
def test_run_factors_one_bulk_operator_per_dt(monkeypatch, case):
    # run factors one LU, two dpttrf (the operators of a_mean and of
    # a_harmonic), and takes its one Dirichlet response (from which the jump
    # response comes), when a dt starts: 1 LU on a 40-step decay, and 1 + 2
    # on tests/test_cli.py's HALVING_RUN, whose dt = 0.04 is made to stall
    # and halves twice.  Every step of a dt solves with that dt's operator,
    # whose 1/dt and theta are the step's.  The steady initial solve
    # factors its own, also by two dpttrf.
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 2)
    if case == "decay":
        cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
        t_end, halvings, amp = 40 * cfg.dt, 0, 1e-4
    else:
        cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0)
        t_end, halvings, amp = 0.08, 2, 0.1
        stall_above(monkeypatch, HALVING_STALL_DT)
    rho0 = amp * np.sin(cfg.grids().tangential.nodes)
    counts = {"dpttrf": 0, "dirichlet_response": 0}
    real_factor = stepper._dpttrf
    real_response = stepper._BulkLU.__dict__["dirichlet_response"].func

    def factor(*args):
        counts["dpttrf"] += 1
        return real_factor(*args)

    def response(self):
        counts["dirichlet_response"] += 1
        return real_response(self)

    counting_response = functools.cached_property(response)
    counting_response.__set_name__(stepper._BulkLU, "dirichlet_response")
    monkeypatch.setattr(stepper, "_dpttrf", factor)
    monkeypatch.setattr(stepper._BulkLU, "dirichlet_response", counting_response)
    u0 = np.zeros(cfg.grids().shape)
    if case == "decay":
        u0 = compatible_initial_temperature(rho0, cfg)
        assert counts == {"dpttrf": 2, "dirichlet_response": 0}
        counts.update(dpttrf=0)

    handed, solved = [], []  # (dt, theta, operator) of each step; each step's solve operator
    real_step, real_prepare = stepper.fixed_point_step, stepper._prepare_step

    def recording_step(level, step_cfg, **kwargs):
        handed.append((step_cfg.dt, step_cfg.theta, kwargs["bulk"]))
        return real_step(level, step_cfg, **kwargs)

    def recording_prepare(bulk, *args, **kwargs):
        solved.append(bulk)
        return real_prepare(bulk, *args, **kwargs)

    monkeypatch.setattr(stepper, "fixed_point_step", recording_step)
    monkeypatch.setattr(stepper, "_prepare_step", recording_prepare)
    res = run(u0, rho0, cfg, t_end)
    assert res.cfg.dt == cfg.dt / 2**halvings and res.state.t == t_end
    assert counts == {"dpttrf": 2 * (1 + halvings), "dirichlet_response": 1 + halvings}
    assert len(solved) == len(handed) == round(t_end / res.cfg.dt) + halvings
    assert all(s is bulk for s, (*_, bulk) in zip(solved, handed))
    assert all(bulk.inv_dt == 1.0 / dt and bulk.theta == theta for dt, theta, bulk in handed)
    # the steps of one dt share its operator, one per dt
    per_dt = {}
    for dt, _, bulk in handed:
        per_dt.setdefault(dt, set()).add(id(bulk))
    assert len(per_dt) == 1 + halvings and all(len(ids) == 1 for ids in per_dt.values())


@pytest.mark.parametrize("halvings", [0, 2])
def test_run_builds_one_fixed_point_norm_per_dt(monkeypatch, halvings):
    # when a dt starts, run takes the weights of the level it starts from
    # by one ``norm_weights`` call and builds the dt's one ``EnergyNormK0``
    # from them, at that level's slope: 1 + halvings of each on a run whose
    # dt = 0.04 is made to stall (halvings = 2) or not.  Every step of a dt
    # is handed that dt's norm.
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 2)
    if halvings:
        stall_above(monkeypatch, HALVING_STALL_DT)
    cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0)
    rho0 = 0.1 * np.sin(cfg.grids().tangential.nodes)
    weights, norms, handed = [], [], []  # (rho,); (slope, norm); (dt, level, norm)
    real_weights, real_norm, real_step = (stepper.norm_weights, stepper.EnergyNormK0,
                                          stepper.fixed_point_step)

    def recording_weights(rho, *args):
        weights.append(rho)
        return real_weights(rho, *args)

    def recording_norm(psi_x, *args):
        norms.append((psi_x, real_norm(psi_x, *args)))
        return norms[-1][1]

    def recording_step(level, step_cfg, **kwargs):
        handed.append((step_cfg.dt, level, kwargs["fp_norm"]))
        return real_step(level, step_cfg, **kwargs)

    monkeypatch.setattr(stepper, "norm_weights", recording_weights)
    monkeypatch.setattr(stepper, "EnergyNormK0", recording_norm)
    monkeypatch.setattr(stepper, "fixed_point_step", recording_step)
    res = run(np.zeros(cfg.grids().shape), rho0, cfg, 0.08)
    assert res.cfg.dt == cfg.dt / 2**halvings
    assert len(weights) == len(norms) == 1 + halvings
    firsts = {}  # dt: (the level it starts from, the norm of each of its steps)
    for dt, level, norm in handed:
        firsts.setdefault(dt, (level, set()))[1].add(id(norm))
    assert len(firsts) == 1 + halvings
    for (level, ids), rho, (psi_x, norm) in zip(firsts.values(), weights, norms, strict=True):
        assert ids == {id(norm)}
        assert rho is level.rho and psi_x is level.rho_x


def test_run_predicts_each_start_from_two_levels_of_the_current_dt(monkeypatch):
    # dt = 0.04 and 0.02 are made to fail: the first attempt and each retry
    # after a halving start from the old level's values bitwise (its interface, and
    # u_old for the first lag loop), the step after from 2 rho_n - rho_{n-1} and
    # 2 u_n - u_{n-1}, every later step from 3 rho_n - 3 rho_{n-1} + rho_{n-2}
    # and 3 u_n - 3 u_{n-1} + u_{n-2}, whose fields are the same combination
    # of the levels'
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 2)
    stall_above(monkeypatch, HALVING_STALL_DT)
    cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0)
    grids = cfg.grids()
    x = grids.tangential.nodes
    rho0 = 0.1 * np.sin(x)
    u0 = np.zeros(grids.shape)
    levels, calls = [(u0, rho0)], []  # the accepted (u, rho) at the current dt
    warm_starts = []  # the (u, fields) each solve's lag loop starts from
    rho_starts = []  # the rho_m of each step's set-up, its first interface transforms
    real_step, real_temperature = stepper.fixed_point_step, stepper.temperature_step
    real_transforms = stepper._interface_transforms

    def recording_temperature(*args, **kwargs):
        warm_starts.append(kwargs["start"])
        return real_temperature(*args, **kwargs)

    def recording_step(level, *args, earlier=(), **kwargs):
        expected = None
        if len(levels) == 2:
            (u_a, rho_a), (u_b, rho_b) = levels
            expected = (2.0 * rho_b - rho_a, 2.0 * u_b - u_a)
        elif len(levels) >= 3:
            (u_a, rho_a), (u_b, rho_b), (u_c, rho_c) = levels[-3:]
            expected = (3.0 * rho_c - 3.0 * rho_b + rho_a, 3.0 * u_c - 3.0 * u_b + u_a)
        # the levels one and two dt back, newest first, as far as held
        held = levels[-2::-1][:2]
        assert len(earlier) == len(held)
        assert all(e.u is u and e.rho is rho for e, (u, rho) in zip(earlier, held))
        calls.append((len(earlier), expected, level, len(warm_starts), len(rho_starts)))
        try:
            new_state, report = real_step(level, *args, earlier=earlier, **kwargs)
        except (FixedPointError, LinearSolveError):
            del levels[:-1]
            raise
        levels.append((new_state.u, new_state.rho))
        return new_state, report

    monkeypatch.setattr(stepper, "fixed_point_step", recording_step)
    monkeypatch.setattr(stepper, "temperature_step", recording_temperature)
    monkeypatch.setattr(stepper, "_interface_transforms",
                        lambda rho, n_x: rho_starts.append(rho) or real_transforms(rho, n_x))
    res = run(u0, rho0, cfg, 0.08)
    assert res.cfg.dt == 0.01 and len(calls) == 2 + 8
    assert [n for n, *_ in calls] == [0, 0, 0, 1] + [2] * 6
    for _, _, level, first, set_up in calls[:3]:
        assert np.array_equal(warm_starts[first][0].view(np.uint64), level.u.view(np.uint64))
        assert np.array_equal(rho_starts[set_up].view(np.uint64), level.rho.view(np.uint64))
    for _, (rho_ref, u_ref), _, first, set_up in calls[3:]:
        (u_start, fields), pred = warm_starts[first], rho_starts[set_up]
        assert np.array_equal(pred.view(np.uint64), rho_ref.view(np.uint64))
        assert np.array_equal(u_start.view(np.uint64), u_ref.view(np.uint64))
        # the three fields the first lag loop reads; xx and hat are not built
        want = stepper._lagged_fields(u_start, d_tangential(u_start, 1), grids)
        for got, ref in zip((fields.zz, fields.xz, fields.z), want, strict=True):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class _FirstSolve(Exception):
    """Ends a step at its first temperature solve, once recorded."""


def test_fixed_point_step_predicts_a_quadratic_trajectory_exactly(monkeypatch):
    # three levels on a trajectory quadratic in t: the set-up's rho_m and
    # the first lag loop's start are the next level up to roundoff, and the
    # start's lagged fields, combined from the levels', are its own
    cfg = SolverConfig(dt=1e-2, n_x=16, n_z=17, k_diag=0)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    x = grids.tangential.nodes
    z = grids.normal.nodes[None, :]

    def rho(t):
        return 0.1 + 0.05 * np.sin(x) + t * 0.03 * np.cos(2 * x) - t**2 * 0.4 * np.sin(3 * x)

    def u(t):
        return (0.02 * np.cos(x)[:, None] + t * 0.01 * np.sin(2 * x)[:, None] * z**2
                + t**2 * 0.3 * np.sin(x)[:, None] * np.cos(np.pi * z))

    l0, l1, l2 = (make_level(t, u(t), rho(t), cfg) for t in (0.0, cfg.dt, 2 * cfg.dt))
    setup = dt_setup(l2, cfg)
    rho_starts, starts = [], []
    real_transforms = stepper._interface_transforms

    def first_solve(step, coef, *, dirichlet, start, res_tol, update_tol):
        starts.append(start)
        raise _FirstSolve

    monkeypatch.setattr(stepper, "_interface_transforms",
                        lambda rho, n_x: rho_starts.append(rho) or real_transforms(rho, n_x))
    monkeypatch.setattr(stepper, "temperature_step", first_solve)
    with pytest.raises(_FirstSolve):
        fixed_point_step(l2, cfg, t_new=3 * cfg.dt, earlier=(l1, l0), **setup)
    (rho_m,), ((u_start, fields),) = rho_starts, starts
    rho_ref, u_ref = rho(3 * cfg.dt), u(3 * cfg.dt)
    assert np.abs(rho_m - rho_ref).max() <= 1e-14 * np.abs(rho_ref).max()
    assert np.abs(u_start - u_ref).max() <= 1e-14 * np.abs(u_ref).max()
    want = stepper._lagged_fields(u_start, d_tangential(u_start, 1), grids)
    for got, ref in zip((fields.zz, fields.xz, fields.z), want, strict=True):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def run_manufactured_column(monkeypatch):
    """Ten theta = 1/2 steps of a forced 16 x 129 column at dt = 0.01.
    Returns (reports, targets): each step's ``StepReport``, and the
    (res_tol, update_tol) of every temperature solve, in order."""
    from stefansim.oracles import ManufacturedProblem

    cfg = SolverConfig(epsilon=1e-3, n_x=16, n_z=129, theta=0.5, dt=0.01, k_diag=0)
    problem = ManufacturedProblem(cfg.grids(), cfg.cutoff(), cfg.epsilon)
    u0, rho0 = problem.initial_data()
    reports, targets = [], []
    real_step, real_temperature = stepper.fixed_point_step, stepper.temperature_step

    def recording_step(*args, **kwargs):
        new, report = real_step(*args, **kwargs)
        reports.append(report)
        return new, report

    def recording_temperature(*args, **kwargs):
        targets.append((kwargs["res_tol"], kwargs["update_tol"]))
        return real_temperature(*args, **kwargs)

    monkeypatch.setattr(stepper, "fixed_point_step", recording_step)
    monkeypatch.setattr(stepper, "temperature_step", recording_temperature)
    res = run(u0, rho0, cfg, 10 * cfg.dt, forcing=problem)
    assert res.cfg.dt == cfg.dt and len(reports) == 10
    assert len(targets) == sum(r.inner_iters for r in reports)
    return reports, targets


def test_run_bounds_the_work_of_a_manufactured_column(monkeypatch):
    # ten theta = 1/2 steps of a forced column: the summed fixed-point
    # iterates and lag iterations, 49 and 161; the floor under the warm
    # targets (WARM_TOL_FRACTION of fp_tol) saves 8 lag iterations here
    reports, _ = run_manufactured_column(monkeypatch)
    assert sum(r.inner_iters for r in reports) <= 49
    assert sum(r.lag_iters for r in reports) <= 161


def test_run_solves_a_manufactured_column_only_as_far_as_its_loop_needs(monkeypatch):
    # each step after one of LOOSE_FIRST_AFTER or more iterates solves
    # iterate 1 to FIRST_SOLVE_TOL, and warm solves exit at the loop's
    # measured contraction: 49 fixed-point iterates (169 lag iterations)
    # where every solve held to the same accuracy took 53
    # ([6, 6, 6, 5, 5, 5, 5, 5, 5, 5], 200 lag iterations)
    reports, targets = run_manufactured_column(monkeypatch)
    iters = [r.inner_iters for r in reports]
    assert iters == [6, 6, 5, 5, 5, 4, 5, 4, 5, 4]
    firsts = np.cumsum([0] + iters[:-1])
    loose = [targets[i][0] == stepper.FIRST_SOLVE_TOL for i in firsts]
    assert loose == [False] + [n >= stepper.LOOSE_FIRST_AFTER for n in iters[:-1]]
    assert all(res_tol == SolverConfig.lin_tol for i, (res_tol, _) in enumerate(targets)
               if i not in firsts)


def test_run_reports_the_residual_of_the_accepted_solve(monkeypatch):
    # loose first solves end above lin_tol, but no step accepts one: every
    # report's lin_residual, that of the accepted solve, is at most lin_tol
    reports, targets = run_manufactured_column(monkeypatch)
    assert sum(res_tol == stepper.FIRST_SOLVE_TOL for res_tol, _ in targets) >= 5
    assert all(0.0 <= r.lin_residual <= SolverConfig.lin_tol for r in reports)


def test_warm_update_targets_follow_the_contraction_down_to_half_fp_tol(monkeypatch):
    # iterate 1 has no update target; iterate 2's is WARM_FP_FRACTION of
    # iterate 1's difference, and from iterate 3 on min(WARM_FP_FRACTION,
    # r) of the last difference, r the last measured contraction; neither
    # is ever below WARM_TOL_FRACTION of fp_tol
    reports, targets = run_manufactured_column(monkeypatch)
    floor = stepper.WARM_TOL_FRACTION * SolverConfig.fp_tol
    targets = iter(targets)
    floored = tightened = 0
    for report in reports:
        norms = report.fp_norms
        for m in range(len(norms)):
            _, update_tol = next(targets)
            if m == 0:
                assert update_tol == np.inf
                continue
            ratio = norms[m - 1] / norms[m - 2] if m >= 2 else stepper.WARM_FP_FRACTION
            target = min(stepper.WARM_FP_FRACTION, ratio) * norms[m - 1]
            assert update_tol == max(target, floor)
            floored += target < floor
            tightened += floor < target < stepper.WARM_FP_FRACTION * norms[m - 1]
    assert floored >= 1 and tightened >= 10


@pytest.mark.parametrize("prev_iters", [stepper.LOOSE_FIRST_AFTER - 1, stepper.LOOSE_FIRST_AFTER])
def test_fixed_point_step_never_accepts_a_loose_first_solve(monkeypatch, prev_iters):
    # a flat state's iterate 1 reproduces it, difference 0: solved to
    # lin_tol it ends the step, solved to FIRST_SOLVE_TOL (after a step of
    # LOOSE_FIRST_AFTER iterates) the step goes on to iterate 2
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    level = make_level(0.0, np.zeros(cfg.grids().shape), np.full(cfg.n_x, 0.1), cfg)
    res_tols, real_temperature = [], stepper.temperature_step

    def recording_temperature(*args, **kwargs):
        res_tols.append(kwargs["res_tol"])
        return real_temperature(*args, **kwargs)

    monkeypatch.setattr(stepper, "temperature_step", recording_temperature)
    new, report = fixed_point_step(level, cfg, t_new=cfg.dt, **dt_setup(level, cfg),
                                   prev_iters=prev_iters)
    assert report.fp_norms[0] <= cfg.fp_tol
    if prev_iters >= stepper.LOOSE_FIRST_AFTER:
        assert res_tols == [stepper.FIRST_SOLVE_TOL, cfg.lin_tol] and report.inner_iters == 2
    else:
        assert res_tols == [cfg.lin_tol] and report.inner_iters == 1
    assert report.lin_residual <= cfg.lin_tol
    assert np.all(new.u == 0.0) and np.abs(new.rho - 0.1).max() < 1e-15


def test_run_keeps_a_flat_state_at_one_iterate_per_step():
    # the predictor of a flat state is the state itself; no mixing history
    # forms, so no singular Gram matrix is ever solved
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    res = run(np.zeros(cfg.grids().shape), np.full(cfg.n_x, 0.1), cfg, 4 * cfg.dt)
    assert [r.inner_iters for r in res.reports[1:]] == [1] * 4
    assert np.all(res.state.u == 0.0) and np.abs(res.state.rho - 0.1).max() < 1e-15


def test_run_ends_smooth_steps_at_fixed_point_iterate_2(monkeypatch):
    # a small single-mode decay: from step 3 on (the quadratic predictor)
    # iterate 2's difference from the corrected iterate 1 stays below
    # fp_tol (at most about 1.1e-13 here), so each step ends at iterate 2;
    # step 1 (no predictor) and step 2 (the linear one) take 3.  No step
    # follows one of LOOSE_FIRST_AFTER iterates, so every solve, iterate
    # 1's included, is held to lin_tol
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    rho0 = 1e-4 * np.sin(cfg.grids().tangential.nodes)
    u0 = compatible_initial_temperature(rho0, cfg)
    res_tols, real_temperature = [], stepper.temperature_step

    def recording_temperature(*args, **kwargs):
        res_tols.append(kwargs["res_tol"])
        return real_temperature(*args, **kwargs)

    monkeypatch.setattr(stepper, "temperature_step", recording_temperature)
    res = run(u0, rho0, cfg, 40 * cfg.dt)
    assert [r.inner_iters for r in res.reports[1:]] == [3, 3] + [2] * 38
    assert len(res_tols) == 3 + 3 + 2 * 38 and set(res_tols) == {cfg.lin_tol}


@pytest.mark.parametrize("amp", [0.1, 0.15])
def test_run_converges_on_a_tall_column_at_a_large_interface(monkeypatch, amp):
    # plain successive substitution stops contracting here (ratio 0.946)
    # and raises FixedPointError at the first step; the mixed loop converges
    # at the given dt, in 10 / 10 / 9 iterates at amp = 0.1 and 12 / 11 / 11
    # at 0.15
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 0)
    cfg = SolverConfig(n_x=32, n_z=257, dt=1e-3, theta=1.0, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = amp * (np.sin(x) + 0.5 * np.cos(2 * x))
    res = run(compatible_initial_temperature(rho0, cfg), rho0, cfg, 3 * cfg.dt)
    assert len(res.reports) == 4
    assert all(r.inner_iters <= 12 for r in res.reports[1:])


def test_run_converges_at_a_large_temperature_norm(monkeypatch):
    # at max |u0| = 204 a warm solve's lag updates reach their roundoff
    # floor above WARM_TOL_FRACTION of fp_tol, and the floor exit ends 108
    # of the 253 warm solves: the run halves dt once and reaches t_end, no
    # solve taking more than 14 lag iterations.  Without the floor exit
    # warm solves run to lin_max_iter and the step to t = 0.0045 raises
    # FixedPointError
    cfg = SolverConfig(n_x=32, n_z=33, dt=1e-3, theta=1.0, k_diag=0)
    grids = cfg.grids()
    x, z = grids.tangential.nodes, grids.normal.nodes
    u0 = 3000.0 * np.outer(1.0 + np.cos(x), (z**2 - 1.0)**2 * z**6)
    lag_iters, real_temperature = [], stepper.temperature_step

    def recording_temperature(*args, **kwargs):
        out = real_temperature(*args, **kwargs)
        lag_iters.append(out[2])
        return out

    monkeypatch.setattr(stepper, "temperature_step", recording_temperature)
    res = run(u0, 1e-3 * np.sin(x), cfg, 10 * cfg.dt)
    assert res.state.t == pytest.approx(10 * cfg.dt, rel=1e-12)
    assert max(lag_iters) < SolverConfig.lin_max_iter


def test_run_rejects_t_end_off_the_step_grid():
    cfg = SolverConfig(n_x=16, n_z=17, dt=0.02, k_diag=0)
    x = cfg.grids().tangential.nodes
    with pytest.raises(ValueError, match=r"t_end=0\.05 .*dt=0\.02") as exc:
        run(np.zeros(cfg.grids().shape), 0.01 * np.sin(x), cfg, 0.05)
    assert isinstance(exc.value, ConfigError)  # the CLI reports it as a usage error


@pytest.mark.parametrize("t_end", [np.nan, np.inf, -0.02])
def test_run_rejects_a_non_finite_or_negative_t_end(t_end):
    cfg = SolverConfig(n_x=16, n_z=17, dt=0.02, k_diag=0)
    x = cfg.grids().tangential.nodes
    with pytest.raises(ConfigError, match="t_end=.* must be finite and >= 0"):
        run(np.zeros(cfg.grids().shape), 0.01 * np.sin(x), cfg, t_end)


@pytest.mark.parametrize("u_shape, rho_shape", [((16, 9), (16,)), ((16, 17), (8,))])
def test_run_rejects_initial_data_off_the_grid(monkeypatch, u_shape, rho_shape):
    # rejected before any level is made, naming the shapes given and needed
    monkeypatch.setattr(stepper, "_make_report", None)
    cfg = SolverConfig(n_x=16, n_z=17, dt=0.02, k_diag=0)
    given = re.escape(f"u0 of shape {u_shape} and rho0 of shape {rho_shape}")
    with pytest.raises(ConfigError, match=given + r".*\(16, 17\) and \(16,\)"):
        run(np.zeros(u_shape), np.zeros(rho_shape), cfg, 0.04)


def test_run_ends_on_t_end_when_dt_divides_it():
    cfg = SolverConfig(n_x=16, n_z=17, dt=0.02, k_diag=0)
    x = cfg.grids().tangential.nodes
    res = run(np.zeros(cfg.grids().shape), 0.01 * np.sin(x), cfg, 0.06)
    assert len(res.reports) == 4
    assert res.state.t == pytest.approx(0.06, rel=1e-12)


def test_run_ends_exactly_on_t_end():
    # 3 * 0.1 == 0.30000000000000004: the last level sits at t_end itself
    cfg = SolverConfig(n_x=16, n_z=17, dt=0.1, k_diag=0)
    x = cfg.grids().tangential.nodes
    res = run(np.zeros(cfg.grids().shape), 1e-3 * np.sin(x), cfg, 0.3)
    assert res.cfg.dt == 0.1
    assert [r.t for r in res.reports] == [0.0, 0.1, 0.2, 0.3]
    assert res.state.t == 0.3


def test_run_ends_exactly_on_t_end_after_halving_dt(monkeypatch):
    # dt = 0.04 is made to fail twice: the level of the m-th step of 0.01
    # sits at m * 0.01, the last at t_end, not at a sum of twelve 0.01s
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 2)
    stall_above(monkeypatch, HALVING_STALL_DT)
    cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0)
    x = cfg.grids().tangential.nodes
    res = run(np.zeros(cfg.grids().shape), 0.1 * np.sin(x), cfg, 0.12)
    assert res.cfg.dt == 0.01
    assert [r.t for r in res.reports] == [m * 0.01 for m in range(12)] + [0.12]
    assert res.state.t == 0.12


def test_run_is_deterministic():
    cfg = SolverConfig(n_x=32, n_z=33, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = 0.03 * np.sin(x) + 0.01 * np.cos(2 * x)
    u0 = compatible_initial_temperature(rho0, cfg)
    a = run(u0, rho0, cfg, 5 * cfg.dt)
    b = run(u0, rho0, cfg, 5 * cfg.dt)
    assert np.array_equal(a.state.u, b.state.u)
    assert np.array_equal(a.state.rho, b.state.rho)
    assert [r.E for r in a.reports] == [r.E for r in b.reports]


def test_run_short_decay_diagnostics():
    cfg = SolverConfig(n_x=32, n_z=33, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = 1e-3 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    res = run(u0, rho0, cfg, 0.02, compute_identity=False)
    assert all(r.cons_residual <= 1e-6 for r in res.reports[1:])
    energies = [r.E for r in res.reports[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))
    assert all(r.rho_dev_L2 > 0 for r in res.reports)
    assert res.steady_level == pytest.approx(0.0, abs=1e-12)
    assert all(r.i_psi_min_gap >= -1e-12 for r in res.reports)


def test_run_identity_column_fills_once_history_suffices():
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=1)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    res = run(u0, rho0, cfg, 4 * cfg.dt, compute_identity=True)
    assert res.reports[0].identity_residual is None
    assert res.reports[1].identity_residual is None
    for r in res.reports[2:]:
        assert r.identity_residual is not None
        assert 0.0 <= r.identity_residual < 1.0
    # order-1 diagnostics need history: the first report flags the
    # time-derivative terms instead of zeroing them
    assert res.reports[0].missing_E != ()
    assert res.reports[2].missing_E == ()


def test_run_reports_match_diagnostics_of_rebuilt_levels():
    # run's reports read the levels it carries; the same diagnostics of
    # levels rebuilt by make_level from the states it hands out agree.  The
    # carried fields.hat is the final solve's coefficients, not the rfft of its
    # u, so the two differ by roundoff, which the time quotients divide by
    # up to dt^3: measured at most 1.1e-12 relative, bound 1e-10
    cfg = SolverConfig(epsilon=1e-3, n_x=32, n_z=33, dt=1e-3, k_diag=2)
    x = cfg.grids().tangential.nodes
    rho0 = 0.05 * np.sin(x) + 0.02 * np.cos(3 * x)
    u0 = compatible_initial_temperature(rho0, cfg)
    states = [State(0.0, u0, rho0)]
    res = run(u0, rho0, cfg, 10 * cfg.dt, compute_identity=True,
              callbacks=(lambda state, report: states.append(state),))
    assert res.cfg.dt == cfg.dt and len(res.reports) == 11
    rebuilt = [make_level(s.t, s.u, s.rho, cfg) for s in states]
    for i, report in enumerate(res.reports):
        f = evaluate_functionals(rebuilt[max(0, i - cfg.k_diag - 1): i + 1], cfg)
        assert (report.missing_E, report.missing_D) == (f.missing_E, f.missing_D)
        for name in ("E", "D", "E_eps", "D_eps", "sobolev_E", "sobolev_D"):
            assert getattr(report, name) == pytest.approx(getattr(f, name), rel=1e-10, abs=0.0)
        if i < 2:
            assert report.identity_residual is None
        else:
            assert report.identity_residual == pytest.approx(
                identity_residual_k0(rebuilt[i - 2: i + 1], cfg).residual, rel=1e-10, abs=0.0)
    assert not res.reports[-1].missing_E and not res.reports[-1].missing_D


def test_run_rejects_non_finite_accepted_state_naming_t(monkeypatch):
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=1)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    real_step = stepper.fixed_point_step

    def corrupting_step(state, *args, **kwargs):
        new_state, report = real_step(state, *args, **kwargs)
        if new_state.t > 1.5 * cfg.dt:
            new_state.u[3, 2] = np.nan  # off the interface row: the trace check passes
        return new_state, report

    monkeypatch.setattr(stepper, "fixed_point_step", corrupting_step)
    with pytest.raises(NonFiniteFieldError, match=r"^step 2 \(t=0\.002\): accepted u:") as exc:
        run(u0, rho0, cfg, 4 * cfg.dt)
    assert (exc.value.step, exc.value.t) == (2, 0.002)


def test_run_names_the_step_of_a_degenerate_transform():
    # sup |rho| = 0.3 is past the flattening bound: the initial level fails
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    with pytest.raises(DegenerateTransformError,
                       match=r"^step 0 \(t=0\.0\): flattening map degenerate") as exc:
        run(np.zeros(cfg.grids().shape), 0.3 * np.sin(x), cfg, 2 * cfg.dt)
    assert (exc.value.step, exc.value.t) == (0, 0.0)
    i, j = exc.value.node
    assert 0 <= i < cfg.n_x and 0 <= j < cfg.n_z


def test_run_names_the_step_of_an_exhausted_halving(monkeypatch):
    # the step is made to fail at dt = 0.04 and again at the halved 0.02;
    # the error names the level at the halved step's time
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 1)
    stall_above(monkeypatch, HALVING_STALL_DT)
    cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0)
    x = cfg.grids().tangential.nodes
    with pytest.raises(LinearSolveError,
                       match=r"^step 1 \(t=0\.02\): temperature solve stalled") as exc:
        run(np.zeros(cfg.grids().shape), 0.1 * np.sin(x), cfg, 0.08)
    assert (exc.value.step, exc.value.t) == (1, 0.02)
    assert exc.value.residual > cfg.lin_tol


def test_run_checks_finiteness_once_per_level_and_lag_iterate(monkeypatch):
    # each level's accepted u and rho and its functionals; a lag iterate is
    # checked through its residual, and searched only when that is not
    # finite (test_temperature_step_rejects_a_non_finite_iterate), so it
    # makes no call here; the stack reads the slope its level holds, so it
    # takes no checked derivative
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x) + 0.005 * np.cos(2 * x)
    u0 = compatible_initial_temperature(rho0, cfg)
    checks, lag_iters = [0], []
    real_check, real_step = grids_module._require_finite, stepper.fixed_point_step

    def counting_check(*args):
        checks[0] += 1
        return real_check(*args)

    def recording_step(*args, **kwargs):
        result = real_step(*args, **kwargs)
        lag_iters.append(result[1].lag_iters)
        return result

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("stefansim") and \
                getattr(mod, "_require_finite", None) is real_check:
            monkeypatch.setattr(mod, "_require_finite", counting_check)
    monkeypatch.setattr(stepper, "fixed_point_step", recording_step)
    res = run(u0, rho0, cfg, 5 * cfg.dt)
    assert len(res.reports) == 6 and len(lag_iters) == 5 and min(lag_iters) >= 1
    assert checks[0] == 3 * len(res.reports)


@pytest.mark.parametrize("theta, levels_per_step", [(1.0, 1), (0.5, 2)])
def test_forced_run_evaluates_the_forcing_once_per_new_time_level(theta, levels_per_step,
                                                                  forced_step_problem):
    # each step reads the forcing at its new level, and for theta < 1 at its
    # old one too; a level's values are evaluated once and kept on its
    # record, so the run evaluates each level it reads once: every new
    # level, and at theta < 1 the initial one.  The trace check reads the
    # step's own Dirichlet shift.
    cfg, state, forcing = forced_step_problem(theta)
    times, real_at = [], forcing.at

    def counting_at(t):
        times.append(t)
        return real_at(t)

    forcing.at = counting_at
    res = run(state.u, state.rho, cfg, 3 * cfg.dt, forcing=forcing)
    assert res.cfg.dt == cfg.dt and len(res.reports) == 4
    assert sorted(times) == [r.t for r in res.reports[2 - levels_per_step:]]


def test_run_transforms_each_level_once(monkeypatch):
    # the bulk transforms of a step are its lag iterations' own products
    # (one forward, two inverse each) and, on a step that goes past iterate
    # 1, the two inverse ones of iterate 1's corrected temperature: u_old's
    # fields come from its level, and a step makes no 2-D numpy FFT.  A
    # report, identity included, makes no forward bulk transform: the
    # quotients' transforms are differences of the levels'.  The run's
    # one other forward product builds the initial level.
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=2)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x) + 0.005 * np.cos(2 * x)
    u0 = compatible_initial_temperature(rho0, cfg)
    ffts = count_transforms(monkeypatch, two_d_only=True)
    products = count_products(monkeypatch)
    steps, reports = [], []  # (ffts, forward, inverse, lag iterations, corrected); forward
    real_step, real_report = stepper.fixed_point_step, stepper._make_report

    def counting_step(*args, **kwargs):
        before, before_ffts = dict(products), sum(ffts.values())
        result = real_step(*args, **kwargs)
        steps.append((sum(ffts.values()) - before_ffts, products["forward"] - before["forward"],
                      products["inverse"] + products["derivatives"]
                      - before["inverse"] - before["derivatives"],
                      result[1].lag_iters, result[1].inner_iters > 1))
        return result

    def counting_report(*args, **kwargs):
        before = ffts["rfft"] + products["forward"]
        result = real_report(*args, **kwargs)
        reports.append(ffts["rfft"] + products["forward"] - before)
        return result

    monkeypatch.setattr(stepper, "fixed_point_step", counting_step)
    monkeypatch.setattr(stepper, "_make_report", counting_report)
    res = run(u0, rho0, cfg, 5 * cfg.dt, compute_identity=True)
    assert res.reports[-1].identity_residual is not None and not res.reports[-1].missing_D
    assert len(steps) == 5 and reports == [0] * 6
    assert all(corrected for *_, corrected in steps)
    assert all(fft == 0 and forward == lag and inverse == 2 * lag + 2
               for fft, forward, inverse, lag, _ in steps)
    assert products["forward"] == sum(lag for _, _, _, lag, _ in steps) + 1
    assert ffts["rfft"] == 0


def test_run_hands_out_states_without_level_fields(monkeypatch, forced_step_problem):
    # callbacks and the result get (t, u, rho) only, and the run's level
    # records, with their fields, transforms and forcing, die with it: a
    # caller that keeps every state keeps no per-level fields.  Within the
    # run a level stays whole, as ``make_level`` built it: at every
    # callback each live level holds all five fields and, in a forced
    # theta = 1/2 run, its forcing, and only the levels the history holds,
    # max(k_diag + 2, 3), are alive
    plain_cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=1)
    plain_rho = 0.01 * np.sin(plain_cfg.grids().tangential.nodes)
    plain_u = compatible_initial_temperature(plain_rho, plain_cfg)
    forced_cfg, forced_level, forcing = forced_step_problem(0.5)
    records, real_make = [], stepper.make_level

    def recording_make(*args, **kwargs):
        level = real_make(*args, **kwargs)
        records.append(weakref.ref(level))
        return level

    monkeypatch.setattr(stepper, "make_level", recording_make)
    runs = [(plain_cfg, plain_u, plain_rho, None, [2, 3, 3, 3]),
            (replace(forced_cfg, k_diag=2), forced_level.u, forced_level.rho, forcing,
             [2, 3, 4, 4, 4, 4])]
    for cfg, u0, rho0, run_forcing, live_counts in runs:
        records.clear()
        kept, live = [], []  # live: the number of live level records, per callback

        def keep(state, report):
            kept.append(state)
            levels = [ref() for ref in records if ref() is not None]
            assert all(all(f is not None for f in level.fields) for level in levels)
            assert run_forcing is None or all(level.forcing is not None for level in levels)
            live.append(len(levels))

        res = run(u0, rho0, cfg, len(live_counts) * cfg.dt, forcing=run_forcing,
                  compute_identity=True, callbacks=(keep,))
        assert len(kept) == len(live_counts) and len(records) == len(live_counts) + 1
        assert live == live_counts and max(live) == max(cfg.k_diag + 2, 3)
        for state in kept + [res.state]:
            assert type(state) is State and set(vars(state)) == {"t", "u", "rho"}
        gc.collect()
        assert all(ref() is None for ref in records)


def test_run_raises_on_a_trace_gap_without_halving_dt(monkeypatch):
    monkeypatch.setattr(SolverConfig, "trace_tol", 1e-300)
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    dts, real_step = [], stepper.fixed_point_step

    def counting_step(state, step_cfg, *args, **kwargs):
        dts.append(step_cfg.dt)
        return real_step(state, step_cfg, *args, **kwargs)

    monkeypatch.setattr(stepper, "fixed_point_step", counting_step)
    with pytest.raises(FixedPointError,
                       match=r"^step 1 \(t=0\.001\): accepted step violates trace consistency"):
        run(u0, rho0, cfg, 4 * cfg.dt)
    assert dts == [cfg.dt]  # the first step, not retried at a smaller dt


@pytest.mark.parametrize("module", [functionals, identity, stepper],
                         ids=["functionals", "identity", "stepper"])
def test_public_callables_read_grids_and_cutoff_from_cfg(module):
    # one trajectory has one grid and one cutoff: a stage or diagnostic
    # takes level records and cfg, never the parts cfg already names.
    # conserved_quantity(u, rho, cutoff, grids) and equivalence_constant(psi,
    # cutoff, kind) keep theirs: bench/workload.py calls them on bare arrays
    kept = {"conserved_quantity", "equivalence_constant"}
    offenders = [
        f"{name}{inspect.signature(obj)}" for name, obj in vars(module).items()
        if callable(obj) and not name.startswith("_") and name not in kept
        and getattr(obj, "__module__", None) == module.__name__
        and {"cutoff", "grids"} & set(inspect.signature(obj).parameters)]
    assert offenders == []
