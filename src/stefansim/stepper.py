"""Time stepping: decoupled temperature/interface solves with a per-step
fixed-point loop.

One accepted step from t to t + dt repeats, until the iterates stop moving
in the order-0 regularized-energy norm:

  1. freeze the transform coefficients at the current interface iterate
     (and its backward quotient against the previous accepted interface),
  2. solve the implicit temperature problem with curvature Dirichlet data
     at z = 0 and no-flux walls,
  3. update the interface from the regularized jump relation.

The temperature solve is theta-implicit (theta = 1: backward Euler,
theta = 1/2: trapezoidal).  Per tangential Fourier mode the implicit
operator  1/dt + theta k^2 - theta a_mean(z) d_zz  is tridiagonal on each
half-strip and is factored once per temperature solve (one banded LU
for all modes and both halves); the tangentially fluctuating coefficient
parts  (a - a_mean) u_zz - B u_xz - c u_z  are lagged one inner iterate,
each lag iteration reuses the factors, and the lag loop runs until the
*full* frozen-coefficient discrete system is satisfied to ``lin_tol``.
Walls use mirror-ghost elimination (second-order Neumann); the interface
row is a Dirichlet row.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import lapack

from .errors import FixedPointError, LinearSolveError
from .functionals import (
    DerivativeStack,
    EnergyReport,
    conservation_residual,
    evaluate_functionals,
    state_energy_k0,
    steady_mean,
)
from .grids import Grids, NormalGrid, TangentialGrid, _require_finite, d_tangential, l2_interface
from .identity import identity_residual_k0
from .transform import Cutoff, coefficients, curvature, jump_normal_derivative


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 0.0
    dt: float = 1e-3
    n_x: int = 64
    n_z: int = 65
    alpha: float = 0.25
    theta: float = 1.0
    fp_tol: float = 1e-12
    fp_max_iter: int = 60
    lin_tol: float = 1e-11
    lin_max_iter: int = 200
    k_diag: int = 1
    trace_tol: float = 1e-6
    max_dt_halvings: int = 2

    def __post_init__(self):
        if self.epsilon < 0 or self.dt <= 0:
            raise ValueError("epsilon must be >= 0 and dt > 0")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [1/2, 1]")
        if not (0 <= self.k_diag <= 3):
            raise ValueError("k_diag must be in 0..3")
        self.cutoff()  # rejects alpha outside (0, 1/3)

    def grids(self):
        return Grids(TangentialGrid(self.n_x), NormalGrid(self.n_z))

    def cutoff(self):
        return Cutoff(self.alpha)


@dataclass
class State:
    t: float
    u: np.ndarray
    rho: np.ndarray
    rho_prev: Optional[np.ndarray] = None


@dataclass(frozen=True)
class StepReport:
    inner_iters: int
    fp_norms: tuple
    fp_ratios: tuple
    lin_residual: float
    lag_iters: int


def _thomas_batched(dl, d, du, rhs, du2, ipiv):
    """Solve with the ``dgttrf`` factors of tridiagonal systems laid end to
    end.

    rhs: complex, one system per row of its last axis; its real and
    imaginary parts go to ``dgttrs`` as two right-hand-side columns.  The
    name and the right-hand side as fourth positional argument are what
    ``bench/workload.py`` traces the bulk solve by.
    """
    b = np.empty((rhs.size, 2), order="F")
    b[:, 0] = rhs.real.ravel()
    b[:, 1] = rhs.imag.ravel()
    x, info = lapack.dgttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)
    if info != 0:
        raise LinearSolveError(f"banded substitution failed (dgttrs info={info})")
    out = np.empty(rhs.shape, dtype=complex)
    out.real = x[:, 0].reshape(rhs.shape)
    out.imag = x[:, 1].reshape(rhs.shape)
    return out


class _BulkLU:
    """Per-mode implicit operator  1/dt + theta k^2 - theta a_mean(z) d_zz
    on both half-strips, LU-factored once.

    On each half, index j runs from the interface outward.  The Dirichlet
    row j = 0 is eliminated: its coupling moves into the right-hand side of
    row 1 (left in, partial pivoting would swap it with row 1).  That
    leaves m = i_mid unknowns per half, and all (mode, half) systems are
    laid end to end and factored by one banded LU.  Raises
    LinearSolveError if the operator is singular.
    """

    def __init__(self, a_mean, inv_dt, theta, grids):
        n_z, mid, dz = grids.normal.n_z, grids.normal.i_mid, grids.normal.dz
        self.shape = (grids.tangential.n_x // 2 + 1, n_z)  # (modes, n_z)
        self.mid = mid
        self.dz = dz
        # (2, m) z indices of the unknowns: upper half, then lower half
        self.rows = np.stack((np.arange(mid + 1, n_z), np.arange(mid - 1, -1, -1)))
        off = theta * a_mean[self.rows] / dz**2
        k2 = np.arange(self.shape[0], dtype=float) ** 2
        diag = inv_dt + theta * k2[:, None, None] + 2.0 * off  # (modes, 2, m)
        lower = np.broadcast_to(-off, diag.shape).copy()
        upper = lower.copy()
        lower[..., -1] *= 2.0  # mirror-ghost wall row: u_zz ~ 2(u_{J-1} - u_J)/dz^2
        self.couple = lower[0, :, 0].copy()  # row 1's coefficient of the Dirichlet value
        # no coupling between consecutive systems of the end-to-end layout
        lower[..., 0] = 0.0
        upper[..., -1] = 0.0
        dl, d, du, du2, ipiv, info = lapack.dgttrf(
            lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
        if info != 0:
            raise LinearSolveError(f"bulk operator is singular (dgttrf info={info})")
        self.factors = (dl, d, du, du2, ipiv)

    def solve(self, rhs_hat, dir_hat):
        """Per-mode solution (modes, n_z) for the right-hand side rhs_hat
        (modes, n_z; the interface row is ignored) and the interface
        Dirichlet values dir_hat (modes,)."""
        b = rhs_hat[:, self.rows]
        b[:, :, 0] -= self.couple * dir_hat[:, None]
        dl, d, du, du2, ipiv = self.factors
        x_hat = np.empty(rhs_hat.shape, dtype=complex)
        x_hat[:, self.mid] = dir_hat
        x_hat[:, self.rows] = _thomas_batched(dl, d, du, b, du2, ipiv)
        return x_hat

    def jump_response(self):
        """Per-mode normal-derivative jump of the homogeneous solve with
        unit Dirichlet data: the diagonal linear model of the curvature ->
        temperature -> jump chain, used to make the interface update
        contractive at high wavenumbers."""
        mid = self.mid
        w = self.solve(np.zeros(self.shape, dtype=complex), np.ones(self.shape[0])).real
        return (6.0 - 4.0 * (w[:, mid + 1] + w[:, mid - 1])
                + (w[:, mid + 2] + w[:, mid - 2])) / (2.0 * self.dz)


def _interior_operator(v, coef, grids):
    """Apply Lap' + a d_zz - B d_xz - c d_z on all rows except z = 0.

    Valid on interior rows (centered stencils) and walls (mirror-ghost
    d_zz, Neumann d_z = 0); the interface row of the result is zeroed and
    must not be used (it is replaced by the Dirichlet condition).
    Returns (L v, termwise scale): the scale is the sum of the norms of
    the individual operator terms, the right yardstick for a relative
    residual (the norm of the sum vanishes at a steady solution).
    """
    dz = grids.normal.dz
    mid = grids.normal.i_mid
    v_xx = d_tangential(v, 2)
    v_zz = np.empty_like(v)
    v_zz[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / dz**2
    v_zz[:, 0] = 2.0 * (v[:, 1] - v[:, 0]) / dz**2
    v_zz[:, -1] = 2.0 * (v[:, -2] - v[:, -1]) / dz**2
    v_z = np.zeros_like(v)
    v_z[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * dz)
    v_xz = d_tangential(v_z, 1)
    terms = (v_xx, coef.a * v_zz, -coef.B * v_xz, -coef.c * v_z)
    out = terms[0] + terms[1] + terms[2] + terms[3]
    out[:, mid] = 0.0
    scale = 0.0
    for term in terms:
        t = term.copy()
        t[:, mid] = 0.0
        scale += np.linalg.norm(t)
    return out, scale


def temperature_step(rho_m, rho_t_m, u_old, cfg, grids, cutoff, *,
                     dirichlet=None, forcing_new=None, forcing_old=None,
                     inv_dt=None, coef=None, return_jump_response=False):
    """Solve the theta-implicit frozen-coefficient temperature problem.

    Returns (u_new, final_residual, lag_iterations, jump_response) where
    jump_response is the per-mode Dirichlet-to-jump factor (None unless
    requested).  ``dirichlet`` defaults to the curvature of rho_m;
    ``inv_dt = 0`` gives the steady solve used to build compatible
    initial data.  Raises LinearSolveError if the lag iteration cannot
    reach ``cfg.lin_tol``.
    """
    rho_m = np.asarray(rho_m, dtype=float)
    u_old = np.asarray(u_old, dtype=float)
    theta = cfg.theta
    inv_dt = (1.0 / cfg.dt) if inv_dt is None else float(inv_dt)
    mid = grids.normal.i_mid
    dz = grids.normal.dz
    n_x = grids.tangential.n_x

    if coef is None:
        coef = coefficients(rho_m, np.asarray(rho_t_m, dtype=float), cutoff, grids)
    if dirichlet is None:
        dirichlet = curvature(rho_m)
    dirichlet = np.asarray(dirichlet, dtype=float)
    f_new = np.zeros_like(u_old) if forcing_new is None else np.asarray(forcing_new, dtype=float)
    f_old = np.zeros_like(u_old) if forcing_old is None else np.asarray(forcing_old, dtype=float)

    a_mean = coef.a.mean(axis=0)  # (n_z,), tangential mean; the rest is lagged
    a_fluct = coef.a - a_mean[None, :]

    L_old, scale_old = (_interior_operator(u_old, coef, grids)
                        if theta < 1.0 else (None, 0.0))
    base_rhs = u_old * inv_dt + theta * f_new
    if theta < 1.0:
        base_rhs = base_rhs + (1.0 - theta) * (L_old + f_old)

    bulk = _BulkLU(a_mean, inv_dt, theta, grids)
    dir_hat = np.fft.rfft(dirichlet)

    def solve_once(rhs_bulk):
        x_hat = bulk.solve(np.fft.rfft(rhs_bulk, axis=0), dir_hat)
        return np.fft.irfft(x_hat, n=n_x, axis=0)

    def full_residual(u_new, L_new, scale_new):
        r = (u_new - u_old) * inv_dt - theta * (L_new + f_new)
        if theta < 1.0:
            r = r - (1.0 - theta) * (L_old + f_old)
        r[:, mid] = 0.0
        # backward-error scale: the 1/dt mass terms belong to the system
        # data, so they enter through ||u||, not ||du|| (which cancels to
        # roundoff as dt -> 0 and would make the tolerance unreachable)
        scale = (inv_dt * max(np.linalg.norm(u_new), np.linalg.norm(u_old))
                 + theta * scale_new + (1.0 - theta) * scale_old
                 + np.linalg.norm(theta * f_new + (1.0 - theta) * f_old) + 1e-300)
        return np.linalg.norm(r) / scale

    u_lag = u_old
    residual = np.inf
    for it in range(1, cfg.lin_max_iter + 1):
        lag_zz = np.empty_like(u_lag)
        lag_zz[:, 1:-1] = (u_lag[:, 2:] - 2.0 * u_lag[:, 1:-1] + u_lag[:, :-2]) / dz**2
        lag_zz[:, 0] = 2.0 * (u_lag[:, 1] - u_lag[:, 0]) / dz**2
        lag_zz[:, -1] = 2.0 * (u_lag[:, -2] - u_lag[:, -1]) / dz**2
        lag_z = np.zeros_like(u_lag)
        lag_z[:, 1:-1] = (u_lag[:, 2:] - u_lag[:, :-2]) / (2.0 * dz)
        lag_xz = d_tangential(lag_z, 1)
        rhs = base_rhs + theta * (a_fluct * lag_zz - coef.B * lag_xz - coef.c * lag_z)
        u_new = solve_once(rhs)
        L_new, scale_new = _interior_operator(u_new, coef, grids)
        residual = full_residual(u_new, L_new, scale_new)
        if residual <= cfg.lin_tol:
            sigma = bulk.jump_response() if return_jump_response else None
            return u_new, float(residual), it, sigma
        u_lag = u_new
    raise LinearSolveError(
        f"temperature solve stalled at relative residual {residual:.3e} "
        f"after {cfg.lin_max_iter} lag iterations (lin_tol={cfg.lin_tol:.1e})",
        residual=float(residual),
    )


def solve_regularized(rhs, eps, n_x):
    """Invert (I + eps Lap^2) rho_t = rhs spectrally (diagonal per mode)."""
    r_hat = np.fft.rfft(np.asarray(rhs, dtype=float))
    k4 = np.arange(n_x // 2 + 1, dtype=float) ** 4
    return np.fft.irfft(r_hat / (1.0 + eps * k4), n=n_x)


def interface_step(rho_m, u_new, rho_base, cfg, grids, *,
                   jump_forcing=None, rhs_old=None, jump_response=None):
    """Advance the interface from the theta-weighted regularized jump relation.

    Returns (rho_new, rho_t).  rho_base is the previous *accepted*
    interface; rhs_old is the jump right-hand side at the old time (only
    needed for theta < 1).

    With ``jump_response`` (per-mode factor sigma_k from the temperature
    solve) the flat-state linear model of the curvature-to-jump chain,
    -sigma_k k^2 (rho_new - rho_m), is applied implicitly.  This leaves
    the converged fixed point unchanged — the model term cancels there —
    but damps the k^3-stiff modes that make plain successive substitution
    diverge.
    """
    rho_m = np.asarray(rho_m, dtype=float)
    rho_base = np.asarray(rho_base, dtype=float)
    n_x = grids.tangential.n_x
    bracket2 = 1.0 + d_tangential(rho_m, 1) ** 2
    rhs_new = bracket2 * jump_normal_derivative(np.asarray(u_new, dtype=float), grids)
    if jump_forcing is not None:
        rhs_new = rhs_new + np.asarray(jump_forcing, dtype=float)
    theta = cfg.theta
    rhs = rhs_new if theta == 1.0 else theta * rhs_new + (1.0 - theta) * np.asarray(rhs_old)
    k4 = np.arange(n_x // 2 + 1, dtype=float) ** 4
    reg = 1.0 + cfg.epsilon * k4
    if jump_response is None:
        rho_t = np.fft.irfft(np.fft.rfft(rhs) / reg, n=n_x)
        return rho_base + cfg.dt * rho_t, rho_t
    stab = cfg.dt * theta * np.sqrt(k4) * jump_response  # dt theta k^2 sigma_k
    num = (reg * np.fft.rfft(rho_base) + cfg.dt * np.fft.rfft(rhs)
           + stab * np.fft.rfft(rho_m))
    rho_new = np.fft.irfft(num / (reg + stab), n=n_x)
    return rho_new, (rho_new - rho_base) / cfg.dt


def compatible_initial_temperature(rho0, cfg, grids=None, cutoff=None):
    """Steady temperature field with curvature Dirichlet data at z = 0.

    Solves the stationary frozen-coefficient problem (the 1/dt mass term
    switched off); this is the initial bulk state consistent with the
    interface at t = 0.
    """
    grids = cfg.grids() if grids is None else grids
    cutoff = cfg.cutoff() if cutoff is None else cutoff
    rho0 = np.asarray(rho0, dtype=float)
    zeros = np.zeros_like(rho0)
    steady_cfg = replace(cfg, theta=1.0)
    u0, _, _, _ = temperature_step(rho0, zeros, np.zeros(grids.shape), steady_cfg,
                                   grids, cutoff, inv_dt=0.0)
    return u0


def fixed_point_step(state, cfg, grids, cutoff, forcing=None):
    """One accepted time step; returns (new_state, StepReport).

    Iterates (temperature solve, interface update) from the previous
    accepted state until the iterate difference, measured in the order-0
    regularized-energy norm at the current interface, drops below fp_tol.
    """
    dt = cfg.dt
    theta = cfg.theta
    t_new = state.t + dt
    f_bulk_new = g_dir = f_jump_new = None
    f_bulk_old = None
    rhs_old = None
    if forcing is not None:
        f_bulk_new, g_dir, f_jump_new = forcing.at(t_new)
    if theta < 1.0:
        f_bulk_old = f_jump_old = None
        if forcing is not None:
            f_bulk_old, _, f_jump_old = forcing.at(state.t)
        bracket2_old = 1.0 + d_tangential(state.rho, 1) ** 2
        rhs_old = bracket2_old * jump_normal_derivative(state.u, grids)
        if f_jump_old is not None:
            rhs_old = rhs_old + f_jump_old

    u_m, rho_m = state.u, state.rho
    norms, ratios = [], []
    lin_res_max = 0.0
    lag_total = 0
    for m in range(1, cfg.fp_max_iter + 1):
        rho_t_m = (rho_m - state.rho) / dt
        rho_eff = rho_m if theta == 1.0 else theta * rho_m + (1.0 - theta) * state.rho
        coef = coefficients(rho_eff, rho_t_m, cutoff, grids)
        dirichlet = curvature(rho_m)
        if g_dir is not None:
            dirichlet = dirichlet + g_dir
        u_next, lin_res, lag_iters, sigma = temperature_step(
            rho_eff, rho_t_m, state.u, cfg, grids, cutoff,
            dirichlet=dirichlet, forcing_new=f_bulk_new, forcing_old=f_bulk_old,
            coef=coef, return_jump_response=True,
        )
        rho_next, rho_t = interface_step(
            rho_m, u_next, state.rho, cfg, grids,
            jump_forcing=f_jump_new, rhs_old=rhs_old, jump_response=sigma,
        )
        lin_res_max = max(lin_res_max, lin_res)
        lag_total += lag_iters
        # the norm's weights at rho_m: a and <rho> do not depend on rho_t,
        # so for theta = 1 (rho_eff = rho_m) they are coef's own fields
        weights = coef if theta == 1.0 else coefficients(rho_m, rho_t_m, cutoff, grids)
        diff = np.sqrt(state_energy_k0(u_next - u_m, rho_next - rho_m, rho_m, weights.a,
                                       weights.bracket, cfg.epsilon, grids))
        norms.append(diff)
        if len(norms) >= 2 and norms[-2] > 0:
            ratios.append(norms[-1] / norms[-2])
        u_m, rho_m = u_next, rho_next
        if diff <= cfg.fp_tol:
            new_state = State(t=t_new, u=u_m, rho=rho_m, rho_prev=state.rho)
            return new_state, StepReport(
                inner_iters=m, fp_norms=tuple(norms), fp_ratios=tuple(ratios),
                lin_residual=lin_res_max, lag_iters=lag_total,
            )
    raise FixedPointError(
        f"fixed point failed to contract below fp_tol={cfg.fp_tol:.1e} in "
        f"{cfg.fp_max_iter} iterations (last norm {norms[-1]:.3e}, "
        f"last ratio {ratios[-1] if ratios else float('nan'):.3f})",
        last_ratio=ratios[-1] if ratios else None,
        last_norm=norms[-1],
    )


@dataclass
class RunResult:
    reports: list
    state: State
    cfg: SolverConfig
    steady_level: float
    states: Optional[list] = None


def _make_report(history, cfg, grids, cutoff, steady_level, step_report,
                 compute_identity):
    """Diagnostics of the newest history entry.  Its (u, rho) are checked
    for finiteness here, once: every earlier entry was checked when it was
    the newest."""
    t, u, rho = history[-1]
    _require_finite(u, f"accepted u at t={t!r}")
    _require_finite(rho, f"accepted rho at t={t!r}")
    cons_res = 0.0
    if len(history) >= 2:
        _, u_old, rho_old = history[-2]
        cons_res = conservation_residual((u_old, rho_old), (u, rho), cutoff, grids)
    times = [h[0] for h in history]
    us = [h[1] for h in history]
    rhos = [h[2] for h in history]
    stack = DerivativeStack(grids, cutoff, cfg.k_diag, times, us, rhos)
    f = evaluate_functionals(stack, cfg.epsilon)
    _require_finite([f.E.value, f.D.value, f.E_eps.value, f.D_eps.value,
                     f.sobolev_E.value, f.sobolev_D.value], f"functionals at t={t!r}")
    rho_dev = l2_interface(rho - steady_level, grids.tangential)
    identity_res = None
    if compute_identity and len(history) >= 3:
        window = [history[-3], history[-2], history[-1]]
        identity_res = identity_residual_k0(window, cfg.epsilon, cutoff, grids).residual
    return EnergyReport(
        t=stack.t, E=f.E.value, D=f.D.value, E_eps=f.E_eps.value, D_eps=f.D_eps.value,
        sobolev_E=f.sobolev_E.value, sobolev_D=f.sobolev_D.value, cons_residual=cons_res,
        rho_dev_L2=rho_dev,
        identity_residual=identity_res,
        inner_iters=step_report.inner_iters if step_report else 0,
        missing_E=f.E.missing, missing_D=f.D.missing,
        i_psi_min_gap=f.i_psi_min_gap,
    )


def run(u0, rho0, cfg, t_end, *, forcing=None, callbacks=(),
        collect_states=False, compute_identity=False):
    """Advance from (u0, rho0) to t_end, emitting one EnergyReport per step.

    On a failed step (fixed-point non-contraction, or the inner lag loop
    stalling -- both are how "dt too large" manifests, since 1/dt damps
    both iterations) the step is retried with dt halved, up to
    cfg.max_dt_halvings times; the reduced dt persists for the rest of
    the run and the history buffer restarts (quotients need uniform
    spacing).
    """
    grids = cfg.grids()
    cutoff = cfg.cutoff()
    u0 = np.asarray(u0, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    state = State(t=0.0, u=u0, rho=rho0)
    steady_level = steady_mean(u0, rho0, cutoff, grids)

    history_len = max(cfg.k_diag + 2, 3)
    history = deque(maxlen=history_len)
    history.append((0.0, u0, rho0))
    reports = [_make_report(history, cfg, grids, cutoff, steady_level, None,
                            compute_identity)]
    states = [(0.0, u0.copy(), rho0.copy())] if collect_states else None

    halvings = 0
    while state.t < t_end - 1e-12 * max(1.0, t_end):
        try:
            new_state, step_report = fixed_point_step(state, cfg, grids, cutoff,
                                                      forcing=forcing)
        except (FixedPointError, LinearSolveError):
            if halvings >= cfg.max_dt_halvings:
                raise
            halvings += 1
            cfg = replace(cfg, dt=cfg.dt / 2.0)
            history.clear()
            history.append((state.t, state.u, state.rho))
            continue
        trace_gap = np.abs(new_state.u[:, grids.normal.i_mid]
                           - curvature(new_state.rho)
                           - (forcing.at(new_state.t)[1] if forcing is not None else 0.0)).max()
        if trace_gap > cfg.trace_tol:
            raise FixedPointError(
                f"accepted step violates trace consistency: |u(.,0)-kappa(rho)| "
                f"= {trace_gap:.3e} > {cfg.trace_tol:.1e}")
        state = new_state
        history.append((state.t, state.u, state.rho))
        report = _make_report(history, cfg, grids, cutoff, steady_level,
                              step_report, compute_identity)
        reports.append(report)
        if collect_states:
            states.append((state.t, state.u.copy(), state.rho.copy()))
        for cb in callbacks:
            cb(state, report)
    return RunResult(reports=reports, state=state, cfg=cfg,
                     steady_level=steady_level, states=states)


def run_epsilon_schedule(u0, rho0, cfg, t_end, epsilons, **kwargs):
    """Rerun the same initial data under each regularization strength.

    Returns {epsilon: RunResult}; used for continuation studies comparing
    the regularized dynamics against the unregularized limit.
    """
    out = {}
    for eps in epsilons:
        out[float(eps)] = run(u0, rho0, replace(cfg, epsilon=float(eps)),
                              t_end, **kwargs)
    return out
