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
half-strip.  It is factored once per step (one banded LU for all modes
and both halves) at the step's base interface, the previous accepted
one, before the first iterate; the jump response sigma_k that stabilizes
the interface update comes from the same factors.  The rest of the
frozen coefficients,
(a - a_mean) u_zz - B u_xz - c u_z with a_mean the base interface's, is
lagged one lag iteration; every lag iteration reuses the factors, and
the lag loop runs until the *full* frozen-coefficient discrete system is
satisfied to ``lin_tol``.  Walls use mirror-ghost elimination
(second-order Neumann); the interface row is a Dirichlet row.

The loop is a map rho_m -> rho_next: u_m only warm-starts the next lag
loop, which reuses the fields u_m's solve returned (iterate 1's starts
from u_old).  After iterate 1 a solve ends once the residual test holds
and its last lag update, in the fixed-point norm, is small against the
previous fixed-point difference or fp_tol, or has stopped shrinking (see
``temperature_step``).  When the lag loop stops contracting, its
residual no longer falling over a few iterations, the solve goes on by
GMRES on the same affine map with the banded LU as preconditioner; the
final check is the same full residual.

Each iterate transforms each field once.  A lag iteration makes one
forward FFT (its right-hand side); u_new, u_xx and u_xz come from the
solve's Fourier coefficients by three inverse FFTs, u_zz and u_z by
stencil, and those fields serve both the residual and the next
iteration's lagged terms.  The iterate is checked for finiteness once.
A fixed-point iterate transforms rho_m once: its slope and second
derivative, the resolution check and the curvature Dirichlet data and
the interface update all share that FFT, taken at the end of the
iterate before (the base interface's in the step's set-up).  The
converged step's trace gap max |u(., 0) - kappa(rho) - g| comes from the
accepted rho's FFT; ``run`` checks it against trace_tol.

Every solve has one call shape,
``temperature_step(step, coef, cfg, grids, dirichlet=..., warm=...)``:
``step`` is the ``_Step`` that ``_prepare_step`` builds once per time
step, before the first iterate (the factors, 1/dt and theta, u_old's
transform, fields and norm, the forcing and u_old / dt + theta f_new),
and the iterate adds its frozen coefficients and Dirichlet data.  The
steady solve of ``compatible_initial_temperature`` builds its own ``_Step``
with 1/dt = 0 and theta = 1.

The fixed-point norm (``state_energy_k0`` with an ``EnergyNormK0`` built
once per iterate) makes no 2-D transform: the solve's Fourier
coefficients travel with the fields it returns, so the bulk terms
int w^2 + w_x^2 of the fixed-point difference are a Parseval sum over
the difference of the two solves' coefficients (u_old's at iterate 1),
and those of a warm solve's lag update over x_hat - prev_hat.  The
a-weighted normal-derivative term is a stencil sum, and only the
fixed-point difference has interface terms, from one 1-D FFT.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import ConfigError, FixedPointError, LinearSolveError
from .functionals import (
    DerivativeStack,
    EnergyNormK0,
    EnergyReport,
    conservation_residual,
    evaluate_functionals,
    state_energy_k0,
    steady_mean,
)
from .grids import (
    Grids,
    NormalGrid,
    TangentialGrid,
    _require_finite,
    d_tangential_hat,
    l2_interface,
)
from .identity import identity_residual_k0
from .transform import (
    Cutoff,
    coefficients,
    curvature_hat,
    jump_normal_derivative,
    norm_weights,
)


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
        if not (self.fp_tol > 0 and self.lin_tol > 0 and self.trace_tol > 0
                and min(self.fp_max_iter, self.lin_max_iter) >= 1 and self.max_dt_halvings >= 0):
            raise ValueError("tolerances must be > 0, iteration caps >= 1, max_dt_halvings >= 0")
        self.grids()  # rejects n_x and n_z the grids cannot take
        if self.n_z < 9:  # the diagnostics' 4-point one-sided stencils
            raise ValueError(f"n_z must be >= 9, got {self.n_z}")
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


@dataclass(frozen=True)
class StepReport:
    inner_iters: int
    fp_norms: tuple
    fp_ratios: tuple
    lin_residual: float
    lag_iters: int
    trace_gap: float  # max |u(., 0) - kappa(rho) - g| of the accepted state


# Exit rule of a warm-started temperature solve: once the residual test
# holds, accept when the last lag update, in the fixed-point norm, is at
# most this share of the previous fixed-point difference ...
WARM_FP_FRACTION = 1e-3
# ... or of fp_tol
WARM_TOL_FRACTION = 1e-2
# the lag loop has stalled when its residual has not fallen over this many
# lag iterations; the solve then continues by GMRES
STALL_WINDOW = 3
# relative tolerance of each GMRES cycle on the preconditioned system
KRYLOV_RTOL = 1e-7


class _Fields(NamedTuple):
    """A bulk field's rfft along x and the derivatives ``_bulk_fields``
    takes of it."""
    xx: np.ndarray
    zz: np.ndarray
    xz: np.ndarray
    z: np.ndarray
    hat: np.ndarray


@dataclass(frozen=True)
class _Step:
    """What every temperature solve of one step shares: the ``_BulkLU``
    factored at the step's base interface, 1/dt (0 for the steady solve)
    and theta, u_old with its ``_bulk_fields`` and norm, the bulk forcing
    at both time levels (zeros without forcing), the norm of their theta
    blend, and the part of the right-hand side they fix,
    u_old / dt + theta f_new.  Made by ``_prepare_step``."""
    bulk: _BulkLU
    inv_dt: float
    theta: float
    u: np.ndarray
    fields: _Fields
    norm_u: float
    f_new: np.ndarray
    f_old: np.ndarray
    norm_f: float
    base_rhs: np.ndarray


def _prepare_step(a_mean, u_old, forcing_new, forcing_old, inv_dt, theta, grids):
    """The ``_Step`` of a step from u_old whose operator is factored at the
    z-profile a_mean; a forcing of None is zero."""
    f_new = np.zeros_like(u_old) if forcing_new is None else np.asarray(forcing_new, dtype=float)
    f_old = np.zeros_like(u_old) if forcing_old is None else np.asarray(forcing_old, dtype=float)
    return _Step(
        bulk=_BulkLU(a_mean, inv_dt, theta, grids), inv_dt=inv_dt, theta=theta,
        u=u_old, fields=_bulk_fields(u_old, np.fft.rfft(u_old, axis=0), grids),
        norm_u=np.linalg.norm(u_old), f_new=f_new, f_old=f_old,
        norm_f=np.linalg.norm(theta * f_new + (1.0 - theta) * f_old),
        base_rhs=u_old * inv_dt + theta * f_new)


@dataclass(frozen=True)
class _WarmStart:
    """Where a warm-started temperature solve begins, and what its exit rule
    measures against: the previous fixed-point iterate u and its
    ``_bulk_fields``, the previous fixed-point difference, and the
    fixed-point norm at the iterate (an ``EnergyNormK0``).  A difference
    of inf (a step's first iterate) leaves the residual test alone."""
    u: np.ndarray
    fields: _Fields
    fp_diff: float
    norm: EnergyNormK0


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
        self.a_mean = a_mean
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


def _d_z(v, grids):
    """Centred d_z along the last axis; 0 on the walls (Neumann) and on the
    interface row.  Real or complex (per-mode) input of any memory layout."""
    dz, mid = grids.normal.dz, grids.normal.i_mid
    out = np.zeros_like(v)
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * dz)
    out[:, mid] = 0.0
    return out


def _lagged_fields(v, v_hat, grids):
    """(v_zz, v_xz, v_z) of the bulk field v with rfft ``v_hat``, the
    derivatives the lagged part of the operator reads: v_xz (= ik times d_z
    of v_hat) is one inverse transform, v_zz (mirror-ghost walls) and v_z
    are stencils on v.  Interface rows are zero; no finiteness check."""
    dz, mid = grids.normal.dz, grids.normal.i_mid
    v_zz = np.empty_like(v)
    v_zz[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / dz**2
    v_zz[:, 0] = 2.0 * (v[:, 1] - v[:, 0]) / dz**2
    v_zz[:, -1] = 2.0 * (v[:, -2] - v[:, -1]) / dz**2
    v_zz[:, mid] = 0.0
    return v_zz, d_tangential_hat(_d_z(v_hat, grids), v.shape[0], 1), _d_z(v, grids)


def _bulk_fields(v, v_hat, grids):
    """(v_xx, v_zz, v_xz, v_z, v_hat) of the bulk field v with rfft
    ``v_hat``, as a ``_Fields``: v_xx is one inverse transform, the rest
    are ``_lagged_fields``.  The interface row of every derivative is zero:
    the solve ignores it, and the operator's value there is replaced by
    the Dirichlet condition.  v_hat rides along for the fixed-point norm.
    """
    v_xx = d_tangential_hat(v_hat, v.shape[0], 2)
    v_xx[:, grids.normal.i_mid] = 0.0
    return _Fields(v_xx, *_lagged_fields(v, v_hat, grids), v_hat)


def _interior_operator(coef, fields):
    """Apply Lap' + a d_zz - B d_xz - c d_z on all rows except z = 0 to
    the field v whose ``_bulk_fields`` are ``fields``.

    Valid on interior rows (centered stencils) and walls (mirror-ghost
    d_zz, Neumann d_z = 0); the interface row of the result is zero and
    must not be used (it is replaced by the Dirichlet condition).
    Returns (L v, termwise scale): the scale is the sum of the norms of
    the individual operator terms, the right yardstick for a relative
    residual (the norm of the sum vanishes at a steady solution).  No
    finiteness check.
    """
    terms = (fields.xx, coef.a * fields.zz, -coef.B * fields.xz, -coef.c * fields.z)
    out = terms[0] + terms[1] + terms[2] + terms[3]
    return out, sum(np.linalg.norm(t) for t in terms)


def temperature_step(step, coef, cfg, grids, *, dirichlet, warm=None):
    """Solve the theta-implicit frozen-coefficient temperature problem.

    ``step`` is the ``_Step`` every solve of one time step shares (the
    factored operator, 1/dt and theta, u_old's fields and norm, the
    forcing and the fixed part of the right-hand side); ``coef`` holds the
    frozen coefficients and ``dirichlet`` the interface values.  The lag
    loop lags whatever of ``coef.a`` the factored a_mean leaves out; a
    step with inv_dt = 0 gives the steady solve used to build compatible
    initial data.

    Returns (u_new, final_residual, lag_iterations, fields): fields are
    u_new's ``_bulk_fields``, its rfft included, which a solve
    warm-started from u_new and the fixed-point norm reuse, and
    lag_iterations counts every operator application, GMRES's included.
    Raises LinearSolveError if the solve cannot reach ``cfg.lin_tol`` and
    NonFiniteFieldError on a non-finite iterate.

    Each lag iteration makes one forward transform (of its right-hand
    side) and three inverse ones: u_new, u_xx and u_xz all come from the
    solve's Fourier coefficients.  The fields serve the residual and,
    unchanged, the next iteration's lagged terms.

    Exit rule.  Every solve ends with ``full residual <= lin_tol``, checked
    on the returned u.  With ``warm`` (a ``_WarmStart``) the lag loop starts
    from the previous fixed-point iterate instead of u_old, and once the
    residual test holds it also measures the last lag update in the
    fixed-point norm (``state_energy_k0`` with the iterate's
    ``EnergyNormK0``, on the update's Fourier coefficients x_hat - prev_hat
    and without the interface terms, which are 0: no transform).  It
    accepts when that update is at most WARM_FP_FRACTION of the previous
    fixed-point difference or WARM_TOL_FRACTION of fp_tol, or is no
    smaller than the update before it (the roundoff floor); with a
    difference of inf (a step's first iterate) it measures nothing.  A
    residual test alone would end warm solves at residuals far below
    lin_tol yet carry the lag loop's contraction into the fixed-point
    iterates.

    GMRES fallback.  If the residual has not fallen over STALL_WINDOW lag
    iterations, the loop has stopped contracting (or diverges), and the
    solve goes on from the best iterate by GMRES on the same affine map,
    (I - M^-1 N) u = M^-1 b, with M the factored operator and N the lagged
    part.  Each cycle solves for the correction of the current full
    residual (iterative refinement: GMRES's own preconditioned tolerance
    does not bound the full residual), within the one budget of
    ``lin_max_iter`` operator applications; its Krylov basis holds at most
    that many fields.  An application builds only the ``_lagged_fields``
    of its vector: two inverse transforms, with that of the solve.
    """
    bulk, inv_dt, theta = step.bulk, step.inv_dt, step.theta
    u_old, f_new = step.u, step.f_new
    mid = grids.normal.i_mid
    n_x = grids.tangential.n_x
    a_fluct = coef.a - bulk.a_mean[None, :]  # the lagged part of a

    base_rhs = step.base_rhs
    old_part, scale_old = None, 0.0
    if theta < 1.0:
        L_old, scale_old = _interior_operator(coef, step.fields)
        old_part = (1.0 - theta) * (L_old + step.f_old)  # the old level's explicit share
        base_rhs = base_rhs + old_part

    dir_hat = np.fft.rfft(dirichlet)

    def measure(u_new, u_hat):
        """u_new's fields, its full residual field and the relative full
        residual."""
        fields = _bulk_fields(u_new, u_hat, grids)
        L_new, scale_new = _interior_operator(coef, fields)
        r = (u_new - u_old) * inv_dt - theta * (L_new + f_new)
        if theta < 1.0:
            r = r - old_part
        r[:, mid] = 0.0
        # backward-error scale: the 1/dt mass terms belong to the system
        # data, so they enter through ||u||, not ||du|| (which cancels to
        # roundoff as dt -> 0 and would make the tolerance unreachable)
        scale = (inv_dt * max(np.linalg.norm(u_new), step.norm_u)
                 + theta * scale_new + (1.0 - theta) * scale_old
                 + step.norm_f + 1e-300)
        return fields, r, np.linalg.norm(r) / scale

    def lag_solve(zz, xz, z, rhs, dir_values):
        """Fourier coefficients of M^-1 (rhs + N v), v the field whose
        ``_lagged_fields`` are (zz, xz, z)."""
        rhs = rhs + theta * (a_fluct * zz - coef.B * xz - coef.c * z)
        return bulk.solve(np.fft.rfft(rhs, axis=0), dir_values)

    def krylov(u_new, r, used):
        """Iterative refinement by GMRES from u_new with full residual r:
        each cycle solves (I - M^-1 N) d = -M^-1 r (zero Dirichlet data)
        and adds d, until the full residual reaches lin_tol."""
        matvecs = 0
        zero_dir = np.zeros_like(dir_hat)

        def inv_m(v):
            return np.fft.irfft(bulk.solve(np.fft.rfft(v, axis=0), zero_dir), n=n_x, axis=0)

        def apply(v):
            nonlocal matvecs
            matvecs += 1
            v = v.reshape(grids.shape)
            lagged = lag_solve(*_lagged_fields(v, np.fft.rfft(v, axis=0), grids), 0.0, zero_dir)
            return (v - np.fft.irfft(lagged, n=n_x, axis=0)).ravel()

        op = LinearOperator((u_new.size,) * 2, matvec=apply, dtype=float)
        residual = np.inf
        while used + matvecs < cfg.lin_max_iter:
            d, _ = gmres(op, -inv_m(r).ravel(), rtol=KRYLOV_RTOL, atol=0.0,
                         restart=cfg.lin_max_iter - used - matvecs, maxiter=1)
            d = d.reshape(grids.shape)
            d[:, mid] = 0.0
            u_new = u_new + d
            _require_finite(u_new, "temperature iterate (GMRES)")
            fields, r, residual = measure(u_new, np.fft.rfft(u_new, axis=0))
            if residual <= cfg.lin_tol:
                return u_new, float(residual), used + matvecs, fields
        raise LinearSolveError(
            f"temperature solve stalled: GMRES reached relative residual {residual:.3e} "
            f"within {cfg.lin_max_iter} operator applications (lin_tol={cfg.lin_tol:.1e})",
            residual=float(residual),
        )

    u_prev, fields = (u_old, step.fields) if warm is None else (warm.u, warm.fields)
    best, residuals = None, []
    last_update = np.inf
    for it in range(1, cfg.lin_max_iter + 1):
        x_hat = lag_solve(fields.zz, fields.xz, fields.z, base_rhs, dir_hat)
        u_new = np.fft.irfft(x_hat, n=n_x, axis=0)
        _require_finite(u_new, f"temperature iterate (lag iteration {it})")
        prev_hat = fields.hat
        fields, r, residual = measure(u_new, x_hat)
        if residual <= cfg.lin_tol:
            if warm is None or warm.fp_diff == np.inf or it == cfg.lin_max_iter:
                return u_new, float(residual), it, fields
            # measured only once the residual test holds
            update = np.sqrt(state_energy_k0(u_new - u_prev, x_hat - prev_hat, None, warm.norm))
            if (update <= WARM_FP_FRACTION * warm.fp_diff
                    or update <= WARM_TOL_FRACTION * cfg.fp_tol
                    or update >= last_update):
                return u_new, float(residual), it, fields
            last_update = update
        else:
            if best is None or residual < best[0]:
                best = (residual, u_new, r)
            if len(residuals) >= STALL_WINDOW and residual >= residuals[-STALL_WINDOW]:
                return krylov(best[1], best[2], it)
        residuals.append(residual)
        u_prev = u_new
    raise LinearSolveError(
        f"temperature solve stalled at relative residual {residual:.3e} "
        f"after {cfg.lin_max_iter} lag iterations (lin_tol={cfg.lin_tol:.1e})",
        residual=float(residual),
    )


def interface_step(u_new, rho_base, cfg, grids, *, rho_x, rho_hat,
                   jump_response, jump_forcing=None, rhs_old=None):
    """Advance the interface from the theta-weighted regularized jump relation.

    Returns (rho_new, rho_t).  rho_base is the previous *accepted*
    interface; rhs_old is the jump right-hand side at the old time (only
    needed for theta < 1).  rho_x and rho_hat are the slope and the rfft
    of the current iterate rho_m, which the caller already holds.

    (I + eps Lap^2) rho_t = rhs is inverted per mode (symbol 1 + eps k^4),
    with the flat-state linear model of the curvature-to-jump chain,
    -sigma_k k^2 (rho_new - rho_m), applied implicitly; ``jump_response``
    is the per-mode factor sigma_k, from the step's bulk factorization.
    The model term cancels at the converged fixed point, so it leaves that
    point unchanged, but it damps the k^3-stiff modes that make plain
    successive substitution diverge.  sigma_k = 0 gives the plain
    regularized update.
    """
    rho_base = np.asarray(rho_base, dtype=float)
    n_x = grids.tangential.n_x
    bracket2 = 1.0 + rho_x**2
    rhs_new = bracket2 * jump_normal_derivative(np.asarray(u_new, dtype=float), grids)
    if jump_forcing is not None:
        rhs_new = rhs_new + np.asarray(jump_forcing, dtype=float)
    theta = cfg.theta
    rhs = rhs_new if theta == 1.0 else theta * rhs_new + (1.0 - theta) * np.asarray(rhs_old)
    k = np.arange(n_x // 2 + 1, dtype=float)
    reg = 1.0 + cfg.epsilon * k**4
    stab = cfg.dt * theta * k**2 * jump_response  # dt theta k^2 sigma_k
    num = reg * np.fft.rfft(rho_base) + cfg.dt * np.fft.rfft(rhs) + stab * rho_hat
    rho_new = np.fft.irfft(num / (reg + stab), n=n_x)
    return rho_new, (rho_new - rho_base) / cfg.dt


def compatible_initial_temperature(rho0, cfg):
    """Steady temperature field with curvature Dirichlet data at z = 0.

    Solves the stationary frozen-coefficient problem (the 1/dt mass term
    switched off, theta = 1 whatever cfg.theta: no old level exists at
    t = 0); this is the initial bulk state consistent with the interface
    at t = 0.  The coefficients and the curvature share one rfft of rho0.
    """
    grids = cfg.grids()
    rho0 = np.asarray(rho0, dtype=float)
    _require_finite(rho0, "initial interface")
    rho_hat = np.fft.rfft(rho0)
    rx = d_tangential_hat(rho_hat, cfg.n_x, 1)
    coef = coefficients(rho0, np.zeros_like(rho0), cfg.cutoff(), grids,
                        rho_x=rx, rho_xx=d_tangential_hat(rho_hat, cfg.n_x, 2))
    step = _prepare_step(coef.a.mean(axis=0), np.zeros(grids.shape), None, None, 0.0, 1.0, grids)
    u0, _, _, _ = temperature_step(step, coef, cfg, grids, dirichlet=curvature_hat(rho_hat, rx))
    return u0


def fixed_point_step(state, cfg, grids, cutoff, forcing=None):
    """One accepted time step; returns (new_state, StepReport).

    Iterates the map rho_m -> rho_next (temperature solve with the
    curvature of rho_m as Dirichlet data, then interface update; u_m only
    warm-starts the next solve) from the previous accepted state until the
    iterate difference, measured in the order-0 regularized-energy norm
    at the current interface, drops below fp_tol.  The report carries the
    accepted state's trace gap max |u(., 0) - kappa(rho) - g|.
    """
    dt, theta, n_x = cfg.dt, cfg.theta, grids.tangential.n_x
    t_new = state.t + dt
    f_bulk_new = g_dir = f_jump_new = f_bulk_old = f_jump_old = None
    if forcing is not None:
        f_bulk_new, g_dir, f_jump_new = forcing.at(t_new)
        if theta < 1.0:
            f_bulk_old, _, f_jump_old = forcing.at(state.t)
    # every tangential derivative of an interface comes from one rfft of it:
    # the base interface's here, each later iterate's at the end of the one
    # before
    rho_hat = np.fft.rfft(state.rho)
    rx = base_x = d_tangential_hat(rho_hat, n_x, 1)
    rxx = base_xx = d_tangential_hat(rho_hat, n_x, 2)
    rhs_old = None
    if theta < 1.0:
        rhs_old = (1.0 + base_x**2) * jump_normal_derivative(state.u, grids)
        if f_jump_old is not None:
            rhs_old = rhs_old + f_jump_old
    step = _prepare_step(norm_weights(state.rho, base_x, cutoff, grids)[0].mean(axis=0),
                         state.u, f_bulk_new, f_bulk_old, 1.0 / dt, theta, grids)
    sigma = step.bulk.jump_response()

    u_m, fields_m, rho_m = state.u, step.fields, state.rho
    norms = []
    diff = np.inf  # iterate 1 has no previous difference to measure against
    lin_res_max, lag_total = 0.0, 0
    for m in range(1, cfg.fp_max_iter + 1):
        rho_t_m = (rho_m - state.rho) / dt
        # the norm's weights at rho_m: a and <rho> do not depend on rho_t,
        # so for theta = 1 (rho_eff = rho_m) they are coef's own fields
        if theta == 1.0:
            coef = coefficients(rho_m, rho_t_m, cutoff, grids, rho_x=rx, rho_xx=rxx)
            a_m, bracket_m = coef.a, coef.bracket
        else:
            # rho_eff's derivatives are the same blend of both levels'
            rho_eff = theta * rho_m + (1.0 - theta) * state.rho
            coef = coefficients(rho_eff, rho_t_m, cutoff, grids,
                                rho_x=theta * rx + (1.0 - theta) * base_x,
                                rho_xx=theta * rxx + (1.0 - theta) * base_xx)
            a_m, bracket_m = norm_weights(rho_m, rx, cutoff, grids)
        norm_m = EnergyNormK0(rx, a_m, bracket_m, cfg.epsilon, grids)
        dirichlet = curvature_hat(rho_hat, rx)
        if g_dir is not None:
            dirichlet = dirichlet + g_dir
        u_next, lin_res, lag_iters, fields_next = temperature_step(
            step, coef, cfg, grids, dirichlet=dirichlet,
            warm=_WarmStart(u_m, fields_m, diff, norm_m))
        rho_next, _ = interface_step(
            u_next, state.rho, cfg, grids,
            jump_forcing=f_jump_new, rhs_old=rhs_old, jump_response=sigma,
            rho_x=rx, rho_hat=rho_hat,
        )
        lin_res_max = max(lin_res_max, lin_res)
        lag_total += lag_iters
        # the bulk difference's coefficients are those of the two solves
        diff = np.sqrt(state_energy_k0(u_next - u_m, fields_next.hat - fields_m.hat,
                                       np.fft.rfft(rho_next - rho_m), norm_m))
        norms.append(diff)
        u_m, rho_m, fields_m = u_next, rho_next, fields_next
        rho_hat = np.fft.rfft(rho_m)
        rx = d_tangential_hat(rho_hat, n_x, 1)
        rxx = d_tangential_hat(rho_hat, n_x, 2)
        if diff <= cfg.fp_tol:
            trace = u_m[:, grids.normal.i_mid] - curvature_hat(rho_hat, rx)
            return State(t=t_new, u=u_m, rho=rho_m), StepReport(
                inner_iters=m, fp_norms=tuple(norms),
                fp_ratios=tuple(b / a for a, b in zip(norms, norms[1:])),
                lin_residual=lin_res_max, lag_iters=lag_total,
                trace_gap=float(np.abs(trace if g_dir is None else trace - g_dir).max()))
    last_ratio = norms[-1] / norms[-2] if len(norms) >= 2 else None
    raise FixedPointError(
        f"fixed point failed to contract below fp_tol={cfg.fp_tol:.1e} in "
        f"{cfg.fp_max_iter} iterations (last norm {norms[-1]:.3e}, "
        f"last ratio {float('nan') if last_ratio is None else last_ratio:.3f})",
        last_ratio=last_ratio,
        last_norm=norms[-1],
    )


@dataclass
class RunResult:
    reports: list
    state: State
    cfg: SolverConfig
    steady_level: float


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


def require_whole_steps(t_end, dt):
    """Raise ConfigError (also a ValueError) naming t_end and dt unless
    t_end is a whole number of steps of dt (relative tolerance 1e-9)."""
    steps = t_end / dt
    if not math.isclose(steps, round(steps), rel_tol=1e-9):
        raise ConfigError(f"t_end={t_end!r} is not a whole number of steps of dt={dt!r} "
                          f"(t_end/dt = {steps!r})")


def run(u0, rho0, cfg, t_end, *, forcing=None, callbacks=(), compute_identity=False):
    """Advance from (u0, rho0) to t_end, emitting one EnergyReport per step
    and passing it with the accepted state to each ``cb(state, report)``.

    t_end must be a whole number of steps of cfg.dt, so the run ends on
    t_end; otherwise ``require_whole_steps`` raises ConfigError.

    On a failed step (fixed-point non-contraction, or the inner lag loop
    stalling -- both are how "dt too large" manifests, since 1/dt damps
    both iterations) the step is retried with dt halved, up to
    cfg.max_dt_halvings times; the reduced dt persists for the rest of
    the run and the history buffer restarts (quotients need uniform
    spacing).  An accepted step whose trace gap exceeds cfg.trace_tol
    raises FixedPointError, without a dt halving.
    """
    require_whole_steps(t_end, cfg.dt)
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
        if step_report.trace_gap > cfg.trace_tol:
            raise FixedPointError(
                f"accepted step violates trace consistency: |u(.,0)-kappa(rho)-g| "
                f"= {step_report.trace_gap:.3e} > {cfg.trace_tol:.1e}")
        state = new_state
        history.append((state.t, state.u, state.rho))
        report = _make_report(history, cfg, grids, cutoff, steady_level,
                              step_report, compute_identity)
        reports.append(report)
        for cb in callbacks:
            cb(state, report)
    return RunResult(reports=reports, state=state, cfg=cfg, steady_level=steady_level)
