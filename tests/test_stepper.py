"""Time stepping: solver config, temperature solve, interface update,
per-step fixed point, and the run driver."""
import gc
import inspect
import re
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator

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
from stefansim.grids import d_tangential
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
    at (rho, rho_t), the operator factored at the tangential mean of their
    a, 1/dt from cfg unless given, and the curvature of rho as Dirichlet
    data unless given."""
    coef = coefficients(rho, rho_t, cutoff, grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    inv_dt = 1.0 / cfg.dt if inv_dt is None else inv_dt
    step = prepare_step(coef.a.mean(axis=0), u_old, f_new, f_old, inv_dt, cfg.theta, grids)
    return temperature_step(step, coef,
                            dirichlet=curvature(rho) if dirichlet is None else dirichlet,
                            **cold_start(step))


def prepare_step(a_mean, u_old, f_new, f_old, inv_dt, theta, grids, fp_norm=None):
    """``stepper._prepare_step`` from u_old alone: its fields are built
    here, as ``make_level`` builds them."""
    fields = stepper._bulk_fields(u_old, np.fft.rfft(u_old, axis=0), grids)
    return stepper._prepare_step(a_mean, u_old, fields, f_new, f_old, inv_dt, theta, grids,
                                 fp_norm=fp_norm)


def cold_start(step):
    """The ``temperature_step`` arguments of a solve from the step's u_old
    on the residual test alone, as a step's first iterate makes it."""
    return {"start": (step.u, step.fields), "fp_diff": np.inf}


def bulk_operator(v, coef, grids):
    """``_interior_operator`` on v with v's fields built afresh."""
    fields = stepper._bulk_fields(v, np.fft.rfft(v, axis=0), grids)
    return stepper._interior_operator(coef, fields)


def test_temperature_step_matches_dense_flat_solve():
    cfg = SolverConfig(dt=1e-3, n_x=8, n_z=17)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    z = grids.normal.nodes
    u_old = np.broadcast_to(np.cos(np.pi * z)[None, :], grids.shape).copy()
    zeros = np.zeros(8)
    u_new, residual, lag_iters, fields = solve_alone(
        zeros, zeros, u_old, cfg, grids, cutoff)
    assert residual <= cfg.lin_tol
    # the fields a warm start from u_new reuses are u_new's own
    ref = stepper._bulk_fields(u_new, np.fft.rfft(u_new, axis=0), grids)
    for got, want in zip(fields, ref, strict=True):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
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
    x_hat = bulk.solve(rhs_hat, dir_hat)
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
    sigma = bulk.jump_response()
    assert np.abs(sigma - sigma_ref).max() <= 1e-12 * np.abs(sigma_ref).max()


@pytest.mark.parametrize("n_z", [17, 257])
@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_bulk_solve_keeps_its_arguments_and_the_dirichlet_row(n_z, theta):
    # the solve works on its own copy of rhs_hat (callers reuse theirs), and
    # the interface row is an identity row holding dir_hat exactly
    cfg = SolverConfig(n_x=16, n_z=n_z, theta=theta)
    grids = cfg.grids()
    z = grids.normal.nodes
    bulk = stepper._BulkLU(1.0 + 0.3 * np.cos(np.pi * z), 1e2, theta, grids)
    rng = np.random.default_rng(3)
    rhs_hat = np.fft.rfft(rng.standard_normal(grids.shape), axis=0)
    dir_hat = np.fft.rfft(rng.standard_normal(cfg.n_x))
    rhs_copy, dir_copy = rhs_hat.copy(), dir_hat.copy()
    x_hat = bulk.solve(rhs_hat, dir_hat)
    assert np.array_equal(rhs_hat.view(np.uint64), rhs_copy.view(np.uint64))
    assert np.array_equal(dir_hat.view(np.uint64), dir_copy.view(np.uint64))
    row = np.ascontiguousarray(x_hat[:, grids.normal.i_mid])
    assert np.array_equal(row.view(np.uint64), dir_hat.view(np.uint64))


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
                            small_grids).jump_response()
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


@pytest.mark.parametrize("n_x, n_z", [(16, 17), (64, 65), (32, 257)])
@pytest.mark.parametrize("amp", [0.1, 0.15])
def test_compatible_initial_temperature_converges_where_the_lag_loop_stalls(n_x, n_z, amp):
    # the lag loop stops contracting at these interfaces (at amp = 0.15 its
    # iterates overflow); the solve goes on by GMRES on the same affine map
    cfg = SolverConfig(n_x=n_x, n_z=n_z)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    x = grids.tangential.nodes
    rho = amp * (np.sin(x) + 0.5 * np.cos(2 * x))
    u0 = compatible_initial_temperature(rho, cfg)
    # the steady full residual, by the reference operator
    coef = coefficients(rho, np.zeros_like(rho), cutoff, grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    L, scale, _ = reference_operator(u0, coef, grids)
    assert np.linalg.norm(L) / scale <= cfg.lin_tol
    assert np.abs(u0[:, grids.normal.i_mid] - curvature(rho)).max() <= cfg.trace_tol


def test_gmres_operator_application_makes_two_inverse_transforms(monkeypatch):
    # the lagged part reads u_zz, u_xz and u_z of a Krylov vector: one
    # inverse 2-D FFT for u_xz and one for the solve's result, no u_xx
    cfg = SolverConfig(n_x=64, n_z=65)
    x = cfg.grids().tangential.nodes
    rho = 0.1 * (np.sin(x) + 0.5 * np.cos(2 * x))  # the lag loop stalls here
    counts = count_transforms(monkeypatch, two_d_only=True)
    per_application = []
    real_gmres = sparse_linalg.gmres

    def counting_gmres(op, b, **kwargs):
        def matvec(v):
            before = counts["irfft"]
            out = op.matvec(v)
            per_application.append(counts["irfft"] - before)
            return out

        return real_gmres(LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), b, **kwargs)

    monkeypatch.setattr(sparse_linalg, "gmres", counting_gmres)
    compatible_initial_temperature(rho, cfg)
    assert len(per_application) >= 10
    assert set(per_application) == {2}


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


def reference_lag_loop(rho, rho_t, u_old, cfg, grids, cutoff, dirichlet, f_new, f_old):
    """The lag loop transforming every field afresh: each lagged u_xz and
    each operator application goes through ``d_tangential``."""
    theta, inv_dt, mid = cfg.theta, 1.0 / cfg.dt, grids.normal.i_mid
    coef = coefficients(rho, rho_t, cutoff, grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    a_mean = coef.a.mean(axis=0)
    L_old, scale_old, _ = reference_operator(u_old, coef, grids)
    base = u_old * inv_dt + theta * f_new + (1.0 - theta) * (L_old + f_old)
    bulk = stepper._BulkLU(a_mean, inv_dt, theta, grids)
    dir_hat = np.fft.rfft(dirichlet)
    u_lag = u_old
    for it in range(1, cfg.lin_max_iter + 1):
        _, _, (lag_zz, lag_xz, lag_z) = reference_operator(u_lag, coef, grids)
        rhs = base + theta * ((coef.a - a_mean) * lag_zz - coef.B * lag_xz - coef.c * lag_z)
        u_new = np.fft.irfft(bulk.solve(np.fft.rfft(rhs, axis=0), dir_hat),
                             n=cfg.n_x, axis=0)
        L_new, scale_new, _ = reference_operator(u_new, coef, grids)
        r = (u_new - u_old) * inv_dt - theta * (L_new + f_new) - (1.0 - theta) * (L_old + f_old)
        r[:, mid] = 0.0
        scale = (inv_dt * max(np.linalg.norm(u_new), np.linalg.norm(u_old))
                 + theta * scale_new + (1.0 - theta) * scale_old
                 + np.linalg.norm(theta * f_new + (1.0 - theta) * f_old) + 1e-300)
        if np.linalg.norm(r) / scale <= cfg.lin_tol:
            return u_new, it
        u_lag = u_new
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
    cfg, grids, cutoff, data = lag_loop_problem(0.5)
    built = []
    real_irfft, real_fields = np.fft.irfft, stepper._bulk_fields

    def recording_irfft(*args, **kwargs):
        built.append(real_irfft(*args, **kwargs))
        return built[-1]

    def recording_fields(*args, **kwargs):
        fields = real_fields(*args, **kwargs)
        built.extend(fields)  # the derivatives and the rfft they carry
        return fields

    monkeypatch.setattr(np.fft, "irfft", recording_irfft)
    monkeypatch.setattr(stepper, "_bulk_fields", recording_fields)
    u, _, _, fields = run_lag_problem(cfg, grids, cutoff, data)
    assert u.flags.owndata and u.base is None
    assert any(a is u for a in built)
    assert any(a is fields.hat for a in built)
    assert not any(np.shares_memory(u, a) for a in built + list(data) if a is not u)


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
    # one forward transform (the right-hand side) and three inverse ones
    # (u, u_xx, u_xz) per lag iteration, plus a constant for u_old and the
    # Dirichlet data; the jump response makes none
    cfg, grids, cutoff, data = lag_loop_problem(0.5)
    coef = coefficients(data[0], data[1], cutoff, grids,
                        rho_x=d_tangential(data[0], 1), rho_xx=d_tangential(data[0], 2))
    rho, rho_t, u_old, dirichlet, f_new, f_old = data
    rx = d_tangential(rho, 1)
    norm = EnergyNormK0(rx, *norm_weights(rho, rx, cutoff, grids), cfg)
    counts = count_transforms(monkeypatch)
    step = prepare_step(coef.a.mean(axis=0), u_old, f_new, f_old, 1.0 / cfg.dt, cfg.theta, grids,
                        fp_norm=norm)
    step.bulk.jump_response()
    u, _, lag_iters, fields = temperature_step(step, coef, dirichlet=dirichlet,
                                               **cold_start(step))
    assert lag_iters >= 3
    assert counts["rfft"] <= lag_iters + 2
    assert counts["irfft"] <= 3 * lag_iters + 2
    # the returned fields carry u's Fourier coefficients: those of its solve
    hat = np.fft.rfft(u, axis=0)
    assert np.abs(fields.hat - hat).max() <= 1e-13 * np.abs(hat).max()

    # a warm solve from u on the same step: the exit rule's norm of each
    # lag update works on the coefficients the solve holds, so only the lag
    # iterations and the Dirichlet data transform
    x = grids.tangential.nodes
    counts.update(rfft=0, irfft=0)
    _, residual, warm_iters, _ = temperature_step(
        step, coef, dirichlet=dirichlet + 1e-6 * np.cos(x), start=(u, fields), fp_diff=1e-9)
    assert residual <= cfg.lin_tol and warm_iters >= 2
    assert counts["rfft"] == warm_iters + 1
    assert counts["irfft"] == 3 * warm_iters


def test_temperature_step_rejects_a_non_finite_iterate(small_cfg, small_grids, small_cutoff):
    zeros = np.zeros(small_cfg.n_x)
    u_old = np.zeros(small_grids.shape)
    u_old[5, 3] = np.nan
    with pytest.raises(NonFiniteFieldError, match="lag iteration 1"):
        solve_alone(zeros, zeros, u_old, small_cfg, small_grids, small_cutoff)


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
    new_state, report = fixed_point_step(state, small_cfg, t_new=small_cfg.dt)
    assert report.inner_iters == 1
    assert np.all(new_state.u == 0.0)
    assert np.abs(new_state.rho - 0.1).max() < 1e-15
    assert new_state.t == small_cfg.dt


def test_fixed_point_contracts_after_first_iterate(small_grids):
    cfg = SolverConfig(dt=1e-3, n_x=32, n_z=33, k_diag=0)
    x = small_grids.tangential.nodes
    rho0 = 0.05 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    _, report = fixed_point_step(make_level(0.0, u0, rho0, cfg), cfg, t_new=cfg.dt)
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
    _, report = fixed_point_step(make_level(0.0, u0, rho0, cfg), cfg,
                                 forcing=problem, t_new=cfg.dt)
    assert report.inner_iters <= 6
    assert report.fp_norms[-1] <= cfg.fp_tol


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_factors_the_bulk_operator_once(monkeypatch, theta,
                                                         forced_step_problem):
    cfg, state, forcing = forced_step_problem(theta)
    counts = {"dgttrf": 0, "jump_response": 0, "substitutions": 0}
    real_factor, real_jump = lapack.dgttrf, stepper._BulkLU.jump_response
    real_substitution = stepper._thomas_batched

    def factor(*args, **kwargs):
        counts["dgttrf"] += 1
        return real_factor(*args, **kwargs)

    def jump(self):
        counts["jump_response"] += 1
        return real_jump(self)

    def substitution(*args, **kwargs):
        counts["substitutions"] += 1
        return real_substitution(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgttrf", factor)
    monkeypatch.setattr(stepper._BulkLU, "jump_response", jump)
    monkeypatch.setattr(stepper, "_thomas_batched", substitution)
    _, report = fixed_point_step(state, cfg, t_new=cfg.dt, forcing=forcing)
    assert report.inner_iters >= 3
    # one LU and one jump response per step; every other substitution is
    # a lag iteration
    assert counts["dgttrf"] == 1 and counts["jump_response"] == 1
    assert counts["substitutions"] == report.lag_iters + 1


@pytest.mark.parametrize("theta, predicted", [(1.0, False), (0.5, False), (1.0, True), (0.5, True)],
                         ids=["1.0-False", "0.5-True", "1.0-False-predicted", "0.5-True-predicted"])
def test_fixed_point_step_takes_norm_weights_once_per_interface(monkeypatch, theta, predicted,
                                                               forced_step_problem):
    # the set-up's weights at iterate 1's rho_m (state.rho, or the
    # predictor from the level one dt back) factor the step and give its
    # one fixed-point norm, which every iterate of the step measures in,
    # at every theta
    cfg, state, forcing = forced_step_problem(theta)
    earlier = ()
    if predicted:  # the predictor is 1.01 state.rho, up to roundoff
        earlier = (make_level(state.t - cfg.dt, 0.99 * state.u, 0.99 * state.rho, cfg),)
    calls, real_weights = [], stepper.norm_weights
    monkeypatch.setattr(stepper, "norm_weights",
                        lambda *args: calls.append(args) or real_weights(*args))
    norms, real_norm = [], stepper.EnergyNormK0
    monkeypatch.setattr(stepper, "EnergyNormK0",
                        lambda *args: norms.append(args) or real_norm(*args))
    _, report = fixed_point_step(state, cfg, t_new=cfg.dt, forcing=forcing, earlier=earlier)
    assert report.inner_iters >= 3
    assert len(calls) == 1 and len(norms) == 1
    assert np.array_equal(calls[0][0],
                          2.0 * state.rho - earlier[0].rho if predicted else state.rho)


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_transforms_bulk_fields_only_in_lag_iterations(monkeypatch, theta,
                                                                       forced_step_problem):
    # the only 2-D transforms of a step: 1 forward and 3 inverse per lag
    # iteration, and u_old's, once per level, as ``make_level`` builds the
    # old level here (its rfft, u_xx and u_xz; run's levels carry them, see
    # test_run_transforms_each_level_once); the fixed-point norms and the
    # warm exit rule work on the coefficients the solves return
    cfg, state, forcing = forced_step_problem(theta)
    counts = count_transforms(monkeypatch, two_d_only=True)
    level = make_level(state.t, state.u, state.rho, cfg)
    _, report = fixed_point_step(level, cfg, t_new=cfg.dt, forcing=forcing)
    assert report.inner_iters >= 3
    assert counts["rfft"] == report.lag_iters + 1
    assert counts["irfft"] == 3 * report.lag_iters + 2


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
    _, report = fixed_point_step(state, cfg, t_new=cfg.dt, forcing=forcing)
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
    # from the level: no forward transform of that interface in the step
    cfg, level, forcing = forced_step_problem(theta)
    old_rho_transforms, real_rfft = [0], np.fft.rfft

    def recording_rfft(a, *args, **kwargs):
        if np.shape(a) == level.rho.shape and np.array_equal(a, level.rho):
            old_rho_transforms[0] += 1
        return real_rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    _, report = fixed_point_step(level, cfg, t_new=cfg.dt, forcing=forcing)
    assert report.inner_iters >= 3
    assert old_rho_transforms == [0]


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
        step = prepare_step(coef.a.mean(axis=0), state.u, f_new, f_old, 1.0 / dt, theta, grids)
        u_next, *_ = temperature_step(step, coef,
                                      dirichlet=curvature(rho_m) + g_dir, **cold_start(step))
        sigma = step.bulk.jump_response()
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
    new_state, report = fixed_point_step(state, cfg, t_new=cfg.dt, forcing=forcing)
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
    _, report = fixed_point_step(make_level(0.0, u0, rho0, cfg), cfg, t_new=cfg.dt)
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
    new_state, report = fixed_point_step(state, cfg, t_new=cfg.dt, forcing=forcing)
    assert len(images) == len(iterates) + 1 == report.inner_iters >= 3
    assert np.array_equal(new_state.rho.view(np.uint64), images[-1].view(np.uint64))
    assert any(not np.array_equal(rho_m, g) for rho_m, g in zip(iterates, images))


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
    _, report = fixed_point_step(make_level(0.0, u0, rho0, cfg), cfg, t_new=cfg.dt)
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
    with pytest.warns(ResolutionWarning, match="under-resolved"):
        fixed_point_step(state, cfg, t_new=cfg.dt)


def test_fixed_point_error_carries_last_iterate_info(monkeypatch, small_grids):
    monkeypatch.setattr(SolverConfig, "fp_max_iter", 4)
    cfg = SolverConfig(dt=50.0, n_x=32, n_z=33, k_diag=0)
    x = small_grids.tangential.nodes
    state = make_level(0.0, np.zeros(small_grids.shape), 0.05 * np.sin(x), cfg)
    with pytest.raises(FixedPointError) as exc:
        fixed_point_step(state, cfg, t_new=cfg.dt)
    assert exc.value.last_norm > cfg.fp_tol
    assert exc.value.last_ratio is not None


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_fixed_point_step_measures_its_trace_gap(theta, forced_step_problem):
    # max |u(., 0) - kappa(rho) - g| of the accepted state, g the step's own
    # Dirichlet shift, from the transform of rho the step already holds
    cfg, state, forcing = forced_step_problem(theta)
    new_state, report = fixed_point_step(state, cfg, t_new=cfg.dt, forcing=forcing)
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


def test_run_predicts_each_start_from_two_levels_of_the_current_dt(monkeypatch):
    # dt = 0.04 and 0.02 fail: the first attempt and each retry after a
    # halving start from the old level (its interface, and u_old for the
    # first lag loop), the step after from 2 rho_n - rho_{n-1} and
    # 2 u_n - u_{n-1}, every later step from 3 rho_n - 3 rho_{n-1} + rho_{n-2}
    # and 3 u_n - 3 u_{n-1} + u_{n-2}, whose fields are the same combination
    # of the levels'
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 2)
    cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0)
    grids = cfg.grids()
    x = grids.tangential.nodes
    rho0 = 0.1 * np.sin(x)
    u0 = np.zeros(grids.shape)
    levels, calls = [(u0, rho0)], []  # the accepted (u, rho) at the current dt
    warm_starts = []  # the (u, fields) each solve's lag loop starts from
    rho_starts = []  # the rho_m of each step's set-up, its first norm weights
    real_step, real_temperature = stepper.fixed_point_step, stepper.temperature_step
    real_weights = stepper.norm_weights

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
    monkeypatch.setattr(stepper, "norm_weights",
                        lambda *args: rho_starts.append(args[0]) or real_weights(*args))
    res = run(u0, rho0, cfg, 0.08)
    assert res.cfg.dt == 0.01 and len(calls) == 2 + 8
    assert [n for n, *_ in calls] == [0, 0, 0, 1] + [2] * 6
    for _, _, level, first, set_up in calls[:3]:
        assert warm_starts[first][0] is level.u and rho_starts[set_up] is level.rho
    for _, (rho_ref, u_ref), _, first, set_up in calls[3:]:
        (u_start, fields), pred = warm_starts[first], rho_starts[set_up]
        assert np.array_equal(pred.view(np.uint64), rho_ref.view(np.uint64))
        assert np.array_equal(u_start.view(np.uint64), u_ref.view(np.uint64))
        # the three fields the first lag loop reads; xx and hat are not built
        want = stepper._lagged_fields(u_start, np.fft.rfft(u_start, axis=0), grids)
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
    rho_starts, starts = [], []
    real_weights = stepper.norm_weights

    def first_solve(step, coef, *, dirichlet, start, fp_diff):
        starts.append(start)
        raise _FirstSolve

    monkeypatch.setattr(stepper, "norm_weights",
                        lambda *args: rho_starts.append(args[0]) or real_weights(*args))
    monkeypatch.setattr(stepper, "temperature_step", first_solve)
    with pytest.raises(_FirstSolve):
        fixed_point_step(l2, cfg, t_new=3 * cfg.dt, earlier=(l1, l0))
    (rho_m,), ((u_start, fields),) = rho_starts, starts
    rho_ref, u_ref = rho(3 * cfg.dt), u(3 * cfg.dt)
    assert np.abs(rho_m - rho_ref).max() <= 1e-14 * np.abs(rho_ref).max()
    assert np.abs(u_start - u_ref).max() <= 1e-14 * np.abs(u_ref).max()
    want = stepper._lagged_fields(u_start, np.fft.rfft(u_start, axis=0), grids)
    for got, ref in zip((fields.zz, fields.xz, fields.z), want, strict=True):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_run_bounds_the_work_of_a_manufactured_column(monkeypatch):
    # ten theta = 1/2 steps of a forced column: the summed fixed-point
    # iterates and lag iterations of the quadratic predictor (53 and 283);
    # the linear predictor took 60 and 339
    from stefansim.oracles import ManufacturedProblem

    cfg = SolverConfig(epsilon=1e-3, n_x=16, n_z=129, theta=0.5, dt=0.01, k_diag=0)
    problem = ManufacturedProblem(cfg.grids(), cfg.cutoff(), cfg.epsilon)
    u0, rho0 = problem.initial_data()
    reports, real_step = [], stepper.fixed_point_step

    def recording_step(*args, **kwargs):
        new, report = real_step(*args, **kwargs)
        reports.append(report)
        return new, report

    monkeypatch.setattr(stepper, "fixed_point_step", recording_step)
    res = run(u0, rho0, cfg, 10 * cfg.dt, forcing=problem)
    assert res.cfg.dt == cfg.dt and len(reports) == 10
    assert sum(r.inner_iters for r in reports) <= 53
    assert sum(r.lag_iters for r in reports) <= 283


def test_run_keeps_a_flat_state_at_one_iterate_per_step():
    # the predictor of a flat state is the state itself; no mixing history
    # forms, so no singular Gram matrix is ever solved
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    res = run(np.zeros(cfg.grids().shape), np.full(cfg.n_x, 0.1), cfg, 4 * cfg.dt)
    assert [r.inner_iters for r in res.reports[1:]] == [1] * 4
    assert np.all(res.state.u == 0.0) and np.abs(res.state.rho - 0.1).max() < 1e-15


@pytest.mark.parametrize("amp", [0.1, 0.15])
def test_run_converges_on_a_tall_column_at_a_large_interface(monkeypatch, amp):
    # plain successive substitution stops contracting here (ratio 0.946)
    # and raises FixedPointError at the first step; the mixed loop converges
    # at the given dt
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 0)
    cfg = SolverConfig(n_x=32, n_z=257, dt=1e-3, theta=1.0, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = amp * (np.sin(x) + 0.5 * np.cos(2 * x))
    res = run(compatible_initial_temperature(rho0, cfg), rho0, cfg, 3 * cfg.dt)
    assert len(res.reports) == 4
    assert all(r.inner_iters <= 14 for r in res.reports[1:])


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
    # dt = 0.04 fails twice: the level of the m-th step of 0.01 sits at
    # m * 0.01, the last at t_end, not at a sum of twelve 0.01s
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 2)
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
    # carried u_hat is the final solve's coefficients, not the rfft of its
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
    # the step fails at dt = 0.04 and again at the halved 0.02; the error
    # names the level at the halved step's time
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 1)
    cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0)
    x = cfg.grids().tangential.nodes
    with pytest.raises(LinearSolveError,
                       match=r"^step 1 \(t=0\.02\): temperature solve stalled") as exc:
        run(np.zeros(cfg.grids().shape), 0.1 * np.sin(x), cfg, 0.08)
    assert (exc.value.step, exc.value.t) == (1, 0.02)
    assert exc.value.residual > cfg.lin_tol


def test_run_checks_finiteness_once_per_level_and_lag_iterate(monkeypatch):
    # each level's accepted u and rho and its functionals, plus one check
    # per lag iterate of its solves; the stack reads the slope its level
    # holds, so it takes no checked derivative
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
    assert checks[0] == 3 * len(res.reports) + sum(lag_iters)


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
    # the bulk transforms of a step are its lag iterations' own (one
    # forward, three inverse each): u_old's fields come from its level.  A
    # report, identity included, makes no forward bulk transform: the
    # quotients' transforms are differences of the levels'.  The run's
    # one other forward transform builds the initial level.
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=2)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x) + 0.005 * np.cos(2 * x)
    u0 = compatible_initial_temperature(rho0, cfg)
    counts = count_transforms(monkeypatch, two_d_only=True)
    steps, reports = [], []  # (forward, inverse, lag iterations); forward
    real_step, real_report = stepper.fixed_point_step, stepper._make_report

    def counting_step(*args, **kwargs):
        before = dict(counts)
        result = real_step(*args, **kwargs)
        steps.append((counts["rfft"] - before["rfft"], counts["irfft"] - before["irfft"],
                      result[1].lag_iters))
        return result

    def counting_report(*args, **kwargs):
        before = counts["rfft"]
        result = real_report(*args, **kwargs)
        reports.append(counts["rfft"] - before)
        return result

    monkeypatch.setattr(stepper, "fixed_point_step", counting_step)
    monkeypatch.setattr(stepper, "_make_report", counting_report)
    res = run(u0, rho0, cfg, 5 * cfg.dt, compute_identity=True)
    assert res.reports[-1].identity_residual is not None and not res.reports[-1].missing_D
    assert len(steps) == 5 and reports == [0] * 6
    assert all(forward == lag and inverse == 3 * lag for forward, inverse, lag in steps)
    assert counts["rfft"] == sum(lag for *_, lag in steps) + 1


def test_run_hands_out_states_without_level_fields(monkeypatch):
    # callbacks and the result get (t, u, rho) only, and the run's level
    # records, with their fields, transforms and forcing, die with it: a
    # caller that keeps every state keeps no per-level fields.  Within the
    # run, a level drops its bulk fields once no step can read them.
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=1)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    records, real_make = [], stepper.make_level

    def recording_make(*args, **kwargs):
        level = real_make(*args, **kwargs)
        records.append(weakref.ref(level))
        return level

    monkeypatch.setattr(stepper, "make_level", recording_make)
    kept, holding = [], []  # holding: levels alive with bulk fields, per callback

    def keep(state, report):
        kept.append(state)
        holding.append(sum(ref() is not None and ref().fields is not None for ref in records))

    res = run(u0, rho0, cfg, 4 * cfg.dt, compute_identity=True, callbacks=(keep,))
    assert len(kept) == 4 and len(records) == 5
    # only the newest three levels keep the fields a step or predictor
    # reads: the newest all of them, the two before only the lagged ones
    assert holding == [2, 3, 3, 3]
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
