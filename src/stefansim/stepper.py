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
operator  1/dt + theta k^2 - theta a_mean(z) d_zz  is tridiagonal on the
mode's whole column.  It is factored once per step (one banded LU of all
modes' columns) at iterate 1's interface, before the first iterate; the
jump response sigma_k that stabilizes the interface update comes from
the same factors.  The rest of the frozen coefficients,
(a - a_mean) u_zz - B u_xz - c u_z with a_mean iterate 1's, is lagged one
lag iteration; every lag iteration reuses the factors, and
the lag loop runs until the *full* frozen-coefficient discrete system is
satisfied to ``lin_tol``.  Walls use mirror-ghost elimination
(second-order Neumann); the interface row is a Dirichlet row.

The loop is a map G: rho_m -> rho_next: u_m only warm-starts the next lag
loop, which reuses the fields u_m's solve returned.  Iterate 1 starts
from the polynomial extrapolation through the levels ``run``'s history
holds at the current dt, up to three: with the levels one and two dt
back, from the predictor 3 rho_n - 3 rho_{n-1} + rho_{n-2} and its lag
loop from 3 u_n - 3 u_{n-1} + u_{n-2}; with the level one dt back only
(step 2 and the second step after a dt halving), from 2 rho_n - rho_{n-1}
and 2 u_n - u_{n-1}; the lag loop's fields are the same combination of
the levels' fields (no transform).  With no earlier level (step 1 and
the first step after a halving) they start from rho_n and u_old.  The
trajectory is smooth in t (perturbed flat states relax smoothly), so
the quadratic predictor is off by O(dt^3).  Iterate 1's difference is
measured against u_old either way.  Each later rho_m is a
secant step (Anderson mixing of depth 1) from the last two iterates and
their images; it falls back to the plain image, and mixes again from the
next iterate, when the residual does not change or when a mixed
iterate's difference exceeds the one before.  The stopping test ``diff <= fp_tol`` reads the unmixed
pair (u_next, rho_next) against (u_m, rho_m), and that pair is the
accepted state: a true output of G.

After iterate 1 a solve ends once the residual test holds and its last
lag update, in the fixed-point norm, is small against the previous
fixed-point difference or fp_tol, or has stopped shrinking (see
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
iterate before (iterate 1's is the old level's, or the predictor's in
the step's set-up).  The converged step's trace gap
max |u(., 0) - kappa(rho) - g| comes from the accepted rho's FFT;
``run`` checks it against trace_tol.

Each time level is a ``Level`` record, built once by ``make_level``: t,
u, rho, the final solve's ``_bulk_fields`` of u (its rfft included),
rho's rfft, slope and second derivative, the conserved quantity Q, the
forcing's values at t and, once the identity has read it, the model
energy.  A step reads u_old's fields, the old interface's transforms
and, at theta < 1, the old forcing from the old level, so it transforms
no field of that level and evaluates the forcing once per level; it
returns the new level.  ``run`` keeps the records in its bounded
history only, and its reports read their transforms, Q and model
energies.

The stages read their records and cfg, whose ``grids()`` and
``cutoff()`` are shared instances: ``fixed_point_step(level, cfg,
t_new=..., forcing=..., earlier=...)``, ``interface_step(u_new, old, cfg,
...)``, which reads rho's rfft from the old level, and every solve's one
call shape ``temperature_step(step, coef, dirichlet=..., start=...,
fp_diff=...)``.  ``step`` is the ``_Step`` that ``_prepare_step`` builds
once per time step, before the first iterate; the iterate adds its
frozen coefficients, Dirichlet data, lag-loop start and last fixed-point
difference, and ``SolverConfig``'s constants set the tolerances.
The steady solve of ``compatible_initial_temperature`` builds its own
``_Step`` with 1/dt = 0, theta = 1 and no norm.  ``make_level`` and the
diagnostics read the same cfg.

The fixed-point norm (``state_energy_k0`` with an ``EnergyNormK0``) is
frozen with the LU at iterate 1's interface, whose one ``norm_weights``
call gives both, and makes no 2-D transform: the solve's Fourier
coefficients travel with the fields it returns, so the bulk terms
int w^2 + w_x^2 of the fixed-point difference are a Parseval sum over
the difference of the two solves' coefficients (u_old's at iterate 1),
and those of a warm solve's lag update over x_hat - prev_hat.  The
a-weighted normal-derivative term is a stencil sum, and only the
fixed-point difference has interface terms, from one 1-D FFT and one
batched inverse FFT.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cache
from itertools import islice
from typing import ClassVar, NamedTuple

import numpy as np
from scipy.linalg import lapack

from .errors import ConfigError, FixedPointError, LinearSolveError, StefanSimError
from .functionals import (
    EnergyNormK0,
    EnergyReport,
    conservation_residual,
    conserved_quantity,
    evaluate_functionals,
    state_energy_k0,
    steady_mean,
)
from .grids import (
    Grids,
    NormalGrid,
    TangentialGrid,
    _require_finite,
    d_tangential_hats,
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
    """The six settings a run varies (the fields), and the numerics every
    run shares (class-level constants, which no config can set)."""
    epsilon: float = 0.0
    dt: float = 1e-3
    n_x: int = 64
    n_z: int = 65
    theta: float = 1.0
    k_diag: int = 1
    alpha: ClassVar[float] = 0.25  # cutoff plateau half-width
    fp_tol: ClassVar[float] = 1e-12  # fixed-point difference that ends a step
    fp_max_iter: ClassVar[int] = 60
    lin_tol: ClassVar[float] = 1e-11  # full relative residual that ends a solve
    lin_max_iter: ClassVar[int] = 200  # lag iterations, or GMRES applications
    trace_tol: ClassVar[float] = 1e-6  # largest |u(., 0) - kappa(rho) - g| accepted
    max_dt_halvings: ClassVar[int] = 2

    def __post_init__(self):
        if not (0.0 <= self.epsilon < math.inf and 0.0 < self.dt < math.inf):
            raise ValueError("epsilon must be finite and >= 0, dt finite and > 0")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [1/2, 1]")
        if not (0 <= self.k_diag <= 3):
            raise ValueError("k_diag must be in 0..3")
        self.grids()  # rejects n_x and n_z the grids cannot take

    def grids(self):  # one shared instance per (n_x, n_z)
        return _grids(self.n_x, self.n_z)

    def cutoff(self):  # one shared instance per alpha
        return _cutoff(self.alpha)


@cache
def _grids(n_x, n_z):
    return Grids(TangentialGrid(n_x), NormalGrid(n_z))


_cutoff = cache(Cutoff)


@dataclass(frozen=True)
class StepReport:
    fp_norms: tuple  # the fixed-point difference of each iterate
    lin_residual: float
    lag_iters: int
    trace_gap: float  # max |u(., 0) - kappa(rho) - g| of the accepted state

    @property
    def inner_iters(self):
        return len(self.fp_norms)


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


@dataclass
class State:
    t: float
    u: np.ndarray
    rho: np.ndarray


@dataclass
class Level(State):
    """One time level and what is derived from it, built once by
    ``make_level``: u's ``_bulk_fields`` and its rfft ``u_hat``, rho's
    rfft and slope and second derivative, and the conserved quantity Q.
    Two entries are filled on first use: ``forcing``, the forcing's (bulk,
    Dirichlet, jump) values at t, and ``E_bar``, the pair (epsilon, model
    energy) that ``identity.model_energy`` caches.

    ``run`` keeps levels in its bounded history only, and drops what no
    step can read: the step from a level reads all its ``fields`` and its
    ``forcing``, the predictors of the two steps after it only the fields'
    zz, xz and z: a level one back drops its fields' xx and its forcing,
    three back all its fields.  The reports read the rest, ``u_hat`` (the
    fields' hat) too.  The states it hands to callbacks and returns are
    plain ``State``s, so a caller that keeps every state keeps none."""
    fields: _Fields = None
    u_hat: np.ndarray = None
    rho_hat: np.ndarray = None
    rho_x: np.ndarray = None
    rho_xx: np.ndarray = None
    Q: float = 0.0
    forcing: tuple = None
    E_bar: tuple = None


def make_level(t, u, rho, cfg, *, fields=None, forcing=None):
    """The ``Level`` of the state (t, u, rho) on the grids and cutoff of
    ``cfg``: the one constructor of level records, for ``run``'s history
    and for callers that hold raw arrays.  ``fields`` (u's
    ``_bulk_fields``) are those an accepted step's final solve already
    holds, and are built here when not given; rho's transforms come from
    ``_interface_transforms``.  ``forcing`` is the forcing's values at t,
    if already evaluated.  No finiteness check."""
    grids = cfg.grids()
    u = np.asarray(u, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if fields is None:
        fields = _bulk_fields(u, np.fft.rfft(u, axis=0), grids)
    rho_hat, rho_x, rho_xx = _interface_transforms(rho, grids.tangential.n_x)
    return Level(t=t, u=u, rho=rho, fields=fields, u_hat=fields.hat, rho_hat=rho_hat, rho_x=rho_x,
                 rho_xx=rho_xx, Q=conserved_quantity(u, rho, cfg.cutoff(), grids), forcing=forcing)


def _interface_transforms(rho, n_x):
    """(rfft, slope, second derivative) of the interface rho: every
    tangential derivative of an interface comes from this one FFT."""
    rho_hat = np.fft.rfft(rho)
    return (rho_hat, *d_tangential_hats(rho_hat, n_x, ((1,), (2,))))


def _extrapolate(levels):
    """(rho, (u, fields)) of the polynomial through ``levels``, the newest
    first and one dt apart, taken one dt past the newest: one set of
    weights, (2, -1) for two levels (2 y_n - y_{n-1}) and (3, -3, 1) for
    three (3 y_n - 3 y_{n-1} + y_{n-2}), combines the interfaces, the
    temperatures and their fields, so no transform.  (u, fields) is the
    first lag loop's start, which the step drops once iterate 1 is done;
    only zz, xz and z are combined, the fields that loop reads of its
    start, and xx and hat are None."""
    k = len(levels)
    weights = [float((-1) ** j * math.comb(k, j + 1)) for j in range(k)]

    def combine(arrays):
        return sum(w * a for w, a in zip(weights, arrays, strict=True))

    fields = [level.fields for level in levels]
    return combine(level.rho for level in levels), (
        combine(level.u for level in levels),
        _Fields(None, combine(f.zz for f in fields), combine(f.xz for f in fields),
                combine(f.z for f in fields), None))


@dataclass(frozen=True)
class _Step:
    """What every temperature solve of one step shares: the grids, the
    ``_BulkLU`` factored at the step's first interface iterate, 1/dt (0
    for the steady solve) and theta, u_old with its ``_bulk_fields`` and
    norm, the bulk forcing at both time levels (zeros without forcing), the
    norm of their theta blend, the part of the right-hand side they fix,
    u_old / dt + theta f_new, and the fixed-point norm at the factors'
    interface (None for the steady solve).  Made by ``_prepare_step``."""
    grids: Grids
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
    fp_norm: EnergyNormK0


def _prepare_step(a_mean, u_old, fields_old, forcing_new, forcing_old, inv_dt, theta, grids,
                  fp_norm=None):
    """The ``_Step`` of a step from u_old, whose ``_bulk_fields`` the caller
    holds, with the operator factored at the z-profile a_mean; a forcing
    of None is zero."""
    f_new = np.zeros_like(u_old) if forcing_new is None else np.asarray(forcing_new, dtype=float)
    f_old = np.zeros_like(u_old) if forcing_old is None else np.asarray(forcing_old, dtype=float)
    return _Step(
        grids=grids, bulk=_BulkLU(a_mean, inv_dt, theta, grids), inv_dt=inv_dt, theta=theta,
        u=u_old, fields=fields_old,
        norm_u=np.linalg.norm(u_old), f_new=f_new, f_old=f_old,
        norm_f=np.linalg.norm(theta * f_new + (1.0 - theta) * f_old),
        base_rhs=u_old * inv_dt + theta * f_new, fp_norm=fp_norm)


def _thomas_batched(dl, d, du, rhs, du2, ipiv):
    """Solve with the complex ``dgttrf`` factors of tridiagonal systems
    laid end to end, by one ``zgttrs`` call, in place.

    rhs: complex and C-contiguous, the systems end to end in its flat
    order; it is overwritten by the solution, which is returned in its
    shape.  The name and the right-hand side as fourth positional argument
    are what ``bench/workload.py`` traces the bulk solve by.
    """
    x, info = lapack.zgttrs(dl, d, du, du2, ipiv, rhs.reshape(-1, 1), overwrite_b=1)
    if info != 0:
        raise LinearSolveError(f"banded substitution failed (zgttrs info={info})")
    return x.reshape(rhs.shape)


class _BulkLU:
    """Per-mode implicit operator  1/dt + theta k^2 - theta a_mean(z) d_zz
    on the whole column, LU-factored once.

    Each mode's column runs in z order, lower wall first, and the modes are
    laid end to end, the layout of the solve's (modes, n_z) coefficients.
    The interface row is an identity row holding the Dirichlet value; its
    two neighbours' couplings to it move into their right-hand sides
    (``couple``), so it couples to nothing and partial pivoting never
    swaps it.  One real ``dgttrf`` factors every mode; its factors are
    made complex once, for ``zgttrs``.  Raises LinearSolveError if the
    operator is singular.
    """

    def __init__(self, a_mean, inv_dt, theta, grids):
        n_z, mid, dz = grids.normal.n_z, grids.normal.i_mid, grids.normal.dz
        self.shape = (grids.tangential.n_x // 2 + 1, n_z)  # (modes, n_z)
        self.a_mean = a_mean
        self.mid = mid
        self.dz = dz
        off = theta * a_mean / dz**2
        k2 = np.arange(self.shape[0], dtype=float) ** 2
        diag = inv_dt + theta * k2[:, None] + 2.0 * off  # (modes, n_z)
        lower = np.broadcast_to(-off, diag.shape).copy()  # row j's coefficient of u_{j-1}
        upper = lower.copy()  # ... and of u_{j+1}
        upper[:, 0] *= 2.0  # mirror-ghost walls: u_zz ~ 2(u_1 - u_0)/dz^2
        lower[:, -1] *= 2.0
        # the coefficients of the Dirichlet value in rows mid - 1 and mid + 1
        self.couple = (upper[0, mid - 1], lower[0, mid + 1])
        diag[:, mid] = 1.0
        lower[:, mid:mid + 2] = 0.0
        upper[:, mid - 1:mid + 1] = 0.0
        # no coupling between consecutive modes of the end-to-end layout
        lower[:, 0] = 0.0
        upper[:, -1] = 0.0
        dl, d, du, du2, ipiv, info = lapack.dgttrf(
            lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1])
        if info != 0:
            raise LinearSolveError(f"bulk operator is singular (dgttrf info={info})")
        self.factors = (*(f.astype(complex) for f in (dl, d, du, du2)), ipiv)

    def solve(self, rhs_hat, dir_hat):
        """Per-mode solution (modes, n_z) for the right-hand side rhs_hat
        (modes, n_z; the interface row is ignored) and the interface
        Dirichlet values dir_hat (modes,).  Neither argument is changed,
        and the interface row of the result is dir_hat."""
        mid = self.mid
        b = np.array(rhs_hat, dtype=complex, order="C")
        b[:, mid - 1] -= self.couple[0] * dir_hat
        b[:, mid] = dir_hat
        b[:, mid + 1] -= self.couple[1] * dir_hat
        dl, d, du, du2, ipiv = self.factors
        return _thomas_batched(dl, d, du, b, du2, ipiv)

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
    return v_zz, d_tangential_hats(_d_z(v_hat, grids), v.shape[0], ((1,),))[0], _d_z(v, grids)


def _bulk_fields(v, v_hat, grids):
    """(v_xx, v_zz, v_xz, v_z, v_hat) of the bulk field v with rfft
    ``v_hat``, as a ``_Fields``: v_xx is one inverse transform, the rest
    are ``_lagged_fields``.  The interface row of every derivative is zero:
    the solve ignores it, and the operator's value there is replaced by
    the Dirichlet condition.  v_hat rides along for the fixed-point norm.
    """
    v_xx = d_tangential_hats(v_hat, v.shape[0], ((2,),))[0]
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


def temperature_step(step, coef, *, dirichlet, start, fp_diff):
    """Solve the theta-implicit frozen-coefficient temperature problem.

    ``step`` is the ``_Step`` every solve of one time step shares (the
    grids, the factored operator, 1/dt and theta, u_old's fields and norm,
    the forcing, the fixed part of the right-hand side and the fixed-point
    norm); ``coef`` holds the frozen coefficients, ``dirichlet`` the
    interface values and ``start`` the last iterate (u, its
    ``_bulk_fields``), where the lag loop starts.  The lag loop lags
    whatever of ``coef.a`` the factored a_mean leaves out; a step with
    inv_dt = 0 gives the steady solve used to build compatible initial
    data.

    Returns (u_new, final_residual, lag_iterations, fields): fields are
    u_new's ``_bulk_fields``, its rfft included, which a solve
    warm-started from u_new and the fixed-point norm reuse, and
    lag_iterations counts every operator application, GMRES's included.
    Raises LinearSolveError if the solve cannot reach
    ``SolverConfig.lin_tol`` and NonFiniteFieldError on a non-finite iterate.

    Each lag iteration makes one forward transform (of its right-hand
    side) and three inverse ones: u_new, u_xx and u_xz all come from the
    solve's Fourier coefficients.  The fields serve the residual and,
    unchanged, the next iteration's lagged terms.

    Exit rule.  Every solve ends with ``full residual <= lin_tol``, checked
    on the returned u.  When ``fp_diff``, the last fixed-point difference,
    is finite, the loop, once the residual test holds, also measures the
    last lag update in the step's fixed-point norm (``state_energy_k0`` on
    the update's Fourier coefficients x_hat - prev_hat and without the
    interface terms, which are 0: no transform).  It accepts when that
    update is at most WARM_FP_FRACTION of ``fp_diff`` or WARM_TOL_FRACTION
    of fp_tol, or is no smaller than the update before it (the roundoff
    floor).  A residual test alone would end warm solves at residuals far
    below lin_tol yet carry the lag loop's contraction into the fixed-point
    iterates.  An inf ``fp_diff`` (iterate 1, the steady solve) skips the
    update test, and so needs no norm, nor the start's xx and hat.

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
    grids, bulk, inv_dt, theta = step.grids, step.bulk, step.inv_dt, step.theta
    u_old, f_new = step.u, step.f_new
    lin_tol, max_iter = SolverConfig.lin_tol, SolverConfig.lin_max_iter
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
        from scipy.sparse.linalg import LinearOperator, gmres  # only stalled solves need it
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
        while used + matvecs < max_iter:
            d, _ = gmres(op, -inv_m(r).ravel(), rtol=KRYLOV_RTOL, atol=0.0,
                         restart=max_iter - used - matvecs, maxiter=1)
            d = d.reshape(grids.shape)
            d[:, mid] = 0.0
            u_new = u_new + d
            _require_finite(u_new, "temperature iterate (GMRES)")
            fields, r, residual = measure(u_new, np.fft.rfft(u_new, axis=0))
            if residual <= lin_tol:
                return u_new, float(residual), used + matvecs, fields
        raise LinearSolveError(
            f"temperature solve stalled: GMRES reached relative residual {residual:.3e} "
            f"within {max_iter} operator applications (lin_tol={lin_tol:.1e})",
            residual=float(residual),
        )

    u_prev, fields = start
    # the update test below reads the start's hat, which an extrapolated
    # start (``_extrapolate``) leaves None: such a start must skip the test
    assert fields.hat is not None or fp_diff == np.inf, "start without hat needs fp_diff inf"
    best, residuals = None, []
    last_update = np.inf
    for it in range(1, max_iter + 1):
        x_hat = lag_solve(fields.zz, fields.xz, fields.z, base_rhs, dir_hat)
        u_new = np.fft.irfft(x_hat, n=n_x, axis=0)
        _require_finite(u_new, f"temperature iterate (lag iteration {it})")
        prev_hat = fields.hat
        fields, r, residual = measure(u_new, x_hat)
        if residual <= lin_tol:
            if fp_diff == np.inf or it == max_iter:
                return u_new, float(residual), it, fields
            # measured only once the residual test holds
            update = np.sqrt(state_energy_k0(u_new - u_prev, x_hat - prev_hat, None, step.fp_norm))
            if (update <= WARM_FP_FRACTION * fp_diff
                    or update <= WARM_TOL_FRACTION * SolverConfig.fp_tol
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
        f"after {max_iter} lag iterations (lin_tol={lin_tol:.1e})",
        residual=float(residual),
    )


def interface_step(u_new, old, cfg, *, rho_x, rho_hat, jump_response, jump_forcing=None,
                   rhs_old=None):
    """Advance the interface from the theta-weighted regularized jump relation.

    Returns rho_new.  ``old`` is the ``Level`` of the previous *accepted*
    state, so rho_t = (rho_new - old.rho) / dt, and its rfft is read from
    it; rhs_old is the jump right-hand side at the old time (only needed
    for theta < 1).  rho_x and rho_hat are the slope and the rfft of the
    current iterate rho_m, which the caller already holds.

    (I + eps Lap^2) rho_t = rhs is inverted per mode (symbol 1 + eps k^4),
    with the flat-state linear model of the curvature-to-jump chain,
    -sigma_k k^2 (rho_new - rho_m), applied implicitly; ``jump_response``
    is the per-mode factor sigma_k, from the step's bulk factorization.
    The model term cancels at the converged fixed point, so it leaves that
    point unchanged, but it damps the k^3-stiff modes that make plain
    successive substitution diverge.  sigma_k = 0 gives the plain
    regularized update.
    """
    bracket2 = 1.0 + rho_x**2
    rhs_new = bracket2 * jump_normal_derivative(np.asarray(u_new, dtype=float), cfg.grids())
    if jump_forcing is not None:
        rhs_new = rhs_new + np.asarray(jump_forcing, dtype=float)
    theta = cfg.theta
    rhs = rhs_new if theta == 1.0 else theta * rhs_new + (1.0 - theta) * np.asarray(rhs_old)
    k = np.arange(cfg.n_x // 2 + 1, dtype=float)
    reg = 1.0 + cfg.epsilon * k**4
    stab = cfg.dt * theta * k**2 * jump_response  # dt theta k^2 sigma_k
    num = reg * old.rho_hat + cfg.dt * np.fft.rfft(rhs) + stab * rho_hat
    return np.fft.irfft(num / (reg + stab), n=cfg.n_x)


def compatible_initial_temperature(rho0, cfg):
    """Steady temperature field with curvature Dirichlet data at z = 0.

    Solves the stationary frozen-coefficient problem (the 1/dt mass term
    switched off, theta = 1 whatever cfg.theta: no old level exists at
    t = 0); this is the initial bulk state consistent with the interface
    at t = 0.  It starts from the ``make_level`` of u = 0 at rho0, whose
    rfft of rho0 the coefficients and the curvature share.
    """
    grids, cutoff = cfg.grids(), cfg.cutoff()
    rho0 = np.asarray(rho0, dtype=float)
    _require_finite(rho0, "initial interface")
    zero = make_level(0.0, np.zeros(grids.shape), rho0, cfg)
    coef = coefficients(rho0, np.zeros_like(rho0), cutoff, grids,
                        rho_x=zero.rho_x, rho_xx=zero.rho_xx)
    step = _prepare_step(coef.a.mean(axis=0), zero.u, zero.fields, None, None, 0.0, 1.0, grids)
    u0, _, _, _ = temperature_step(step, coef, dirichlet=curvature_hat(zero.rho_hat, zero.rho_x),
                                   start=(step.u, step.fields), fp_diff=np.inf)
    return u0


class _Secant:
    """One-column secant mixing of the interface map G: rho_m -> rho_next
    (Anderson type-II mixing of depth 1; Anderson, J. ACM 12, 1965).

    ``next(rho_m, rho_next, diff)`` returns the next iterate g - gamma dg,
    with g = rho_next, f = g - rho_m, df and dg the changes of f and g
    since the previous iterate, and gamma = (df . f) / (df . df).  It
    returns the plain image g, and mixes again from the next iterate, when
    there is no previous iterate, when df . df = 0, or when the
    fixed-point difference ``diff`` of a mixed iterate exceeds the one
    before."""

    def __init__(self):
        self.last = None  # (f, g) of the previous iterate
        self.mixed, self.diff = False, np.inf

    def next(self, rho_m, rho_next, diff):
        f = rho_next - rho_m
        last = None if self.mixed and diff > self.diff else self.last
        self.last, self.diff, self.mixed = (f, rho_next), diff, False
        if last is None:
            return rho_next
        d_f = f - last[0]
        d_ff = np.dot(d_f, d_f)
        if d_ff == 0.0:
            return rho_next
        self.mixed = True
        return rho_next - np.dot(d_f, f) / d_ff * (rho_next - last[1])


def fixed_point_step(level, cfg, *, t_new, forcing=None, earlier=()):
    """One accepted time step, to the level at time t_new (where the
    forcing is evaluated); returns (new_level, StepReport).

    ``level`` is the ``Level`` of the old time (``make_level`` builds one
    from raw arrays), and the step reads its fields, transforms and, at
    theta < 1, its forcing, which it evaluates and keeps there on first
    use; ``earlier`` holds the ``Level``s one and two dt before it,
    newest first, as far as they exist (at most two).  The new
    ``Level`` carries the final solve's fields, the accepted rho's
    transforms and the forcing at t_new.

    Iterates the map G: rho_m -> rho_next (temperature solve with the
    curvature of rho_m as Dirichlet data, then interface update; u_m only
    warm-starts the next solve) until the difference of the unmixed pair
    (u_next, rho_next) from (u_m, rho_m), measured in the order-0
    regularized-energy norm at iterate 1's rho_m (frozen with the LU),
    drops below fp_tol; the accepted state is that pair, a true output of
    G.  With ``earlier``, iterate 1 starts from ``_extrapolate``'s
    polynomial through level and earlier:
    the interface from 3 rho_n - 3 rho_{n-1} + rho_{n-2} (two earlier
    levels) or 2 rho_n - rho_{n-1} (one), the lag loop from the same
    combination of the temperatures and their fields; without, from
    level.rho and u_old.
    Iterate 1's difference is measured against u_old either way.  Each
    later rho_m is the ``_Secant`` mix of the last two iterates.  The
    coefficients are frozen at the theta blend of rho_m and level.rho.
    The report carries the accepted state's trace gap
    max |u(., 0) - kappa(rho) - g|.
    """
    grids, cutoff, dt, theta, n_x = cfg.grids(), cfg.cutoff(), cfg.dt, cfg.theta, cfg.n_x
    f_new = f_bulk_new = g_dir = f_jump_new = f_bulk_old = f_jump_old = None
    if forcing is not None:
        f_new = forcing.at(t_new)
        f_bulk_new, g_dir, f_jump_new = f_new
        if theta < 1.0:
            if level.forcing is None:
                level.forcing = forcing.at(level.t)
            f_bulk_old, _, f_jump_old = level.forcing
    # each iterate's transforms are taken at the end of the iterate before,
    # iterate 1's here (or held by the old level)
    base_x, base_xx = level.rho_x, level.rho_xx
    rho_m, rho_hat, rx, rxx = level.rho, level.rho_hat, base_x, base_xx
    u_m, fields_m = level.u, level.fields
    start = (u_m, fields_m)  # where the next lag loop starts
    if earlier:
        rho_m, start = _extrapolate((level, *earlier))
        rho_hat, rx, rxx = _interface_transforms(rho_m, n_x)
    rhs_old = None
    if theta < 1.0:
        rhs_old = (1.0 + base_x**2) * jump_normal_derivative(level.u, grids)
        if f_jump_old is not None:
            rhs_old = rhs_old + f_jump_old
    a, bracket = norm_weights(rho_m, rx, cutoff, grids)  # at iterate 1's rho_m
    step = _prepare_step(a.mean(axis=0), level.u, level.fields, f_bulk_new, f_bulk_old,
                         1.0 / dt, theta, grids, fp_norm=EnergyNormK0(rx, a, bracket, cfg))
    sigma = step.bulk.jump_response()

    mixer = _Secant()
    norms = []
    diff = np.inf  # iterate 1 has no previous difference to measure against
    lin_res_max, lag_total = 0.0, 0
    for m in range(1, cfg.fp_max_iter + 1):
        # frozen at the theta blend of rho_m and level.rho, and of their
        # derivatives; at theta = 1 the blend is rho_m bitwise
        coef = coefficients(theta * rho_m + (1.0 - theta) * level.rho,
                            (rho_m - level.rho) / dt, cutoff, grids,
                            rho_x=theta * rx + (1.0 - theta) * base_x,
                            rho_xx=theta * rxx + (1.0 - theta) * base_xx)
        dirichlet = curvature_hat(rho_hat, rx)
        if g_dir is not None:
            dirichlet = dirichlet + g_dir
        u_next, lin_res, lag_iters, fields_next = temperature_step(
            step, coef, dirichlet=dirichlet, start=start, fp_diff=diff)
        rho_next = interface_step(u_next, level, cfg, rho_x=rx, rho_hat=rho_hat,
                                  jump_response=sigma, jump_forcing=f_jump_new, rhs_old=rhs_old)
        lin_res_max = max(lin_res_max, lin_res)
        lag_total += lag_iters
        # the bulk difference's coefficients are those of the two solves
        diff = np.sqrt(state_energy_k0(u_next - u_m, fields_next.hat - fields_m.hat,
                                       np.fft.rfft(rho_next - rho_m), step.fp_norm))
        norms.append(diff)
        if diff <= cfg.fp_tol:
            new = make_level(t_new, u_next, rho_next, cfg, fields=fields_next, forcing=f_new)
            trace = u_next[:, grids.normal.i_mid] - curvature_hat(new.rho_hat, new.rho_x)
            return new, StepReport(
                fp_norms=tuple(norms), lin_residual=lin_res_max, lag_iters=lag_total,
                trace_gap=float(np.abs(trace if g_dir is None else trace - g_dir).max()))
        u_m, fields_m = u_next, fields_next
        start = (u_m, fields_m)
        rho_m = mixer.next(rho_m, rho_next, diff)
        rho_hat, rx, rxx = _interface_transforms(rho_m, n_x)
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


def _make_report(history, cfg, steady_level, step_report, compute_identity):
    """Diagnostics of the newest history level, at its time, from the
    history's level records and the run's ``cfg``.  Its (u, rho) are
    checked for finiteness here, once: every earlier level was checked
    when it was the newest."""
    new = history[-1]
    _require_finite(new.u, "accepted u")
    _require_finite(new.rho, "accepted rho")
    cons_res = conservation_residual(history[-2], new) if len(history) >= 2 else 0.0
    f = evaluate_functionals(history, cfg)
    _require_finite([f.E, f.D, f.E_eps, f.D_eps, f.sobolev_E, f.sobolev_D], "functionals")
    rho_dev = l2_interface(new.rho - steady_level, cfg.grids().tangential)
    identity_res = None
    if compute_identity and len(history) >= 3:
        window = [history[-3], history[-2], history[-1]]
        identity_res = identity_residual_k0(window, cfg).residual
    return EnergyReport(
        t=float(new.t), **vars(f), cons_residual=cons_res, rho_dev_L2=rho_dev,
        identity_residual=identity_res,
        inner_iters=step_report.inner_iters if step_report else 0,
    )


def require_whole_steps(t_end, dt):
    """Raise ConfigError (also a ValueError) naming t_end and dt unless
    t_end is finite, >= 0 and a whole number of steps of dt (relative
    tolerance 1e-9)."""
    if not 0.0 <= t_end < math.inf:
        raise ConfigError(f"t_end={t_end!r} must be finite and >= 0")
    steps = t_end / dt
    if not math.isclose(steps, round(steps), rel_tol=1e-9):
        raise ConfigError(f"t_end={t_end!r} is not a whole number of steps of dt={dt!r} "
                          f"(t_end/dt = {steps!r})")


def run(u0, rho0, cfg, t_end, *, forcing=None, callbacks=(), compute_identity=False):
    """Advance from (u0, rho0) to t_end, emitting one EnergyReport per step
    and passing it with the accepted state to each ``cb(state, report)``.

    t_end must be a whole number of steps of cfg.dt, so the run ends on
    t_end; otherwise ``require_whole_steps`` raises ConfigError.  The
    level made by the m-th step of the current dt sits at m dt, the last
    one at t_end exactly.

    On a failed step (fixed-point non-contraction, or the inner lag loop
    stalling -- both are how "dt too large" manifests, since 1/dt damps
    both iterations) the step is retried with dt halved, up to
    cfg.max_dt_halvings times; the reduced dt persists for the rest of
    the run and the history buffer restarts (quotients need uniform
    spacing).  An accepted step whose trace gap exceeds cfg.trace_tol
    raises FixedPointError, without a dt halving.

    The history holds one ``Level`` per accepted level (``make_level``),
    which the next steps and the diagnostics read instead of rebuilding
    it: the step takes u_old's fields, transforms and forcing from it, and
    the reports their quotients' transforms, Q and the model energy; the
    steady level is the initial level's ``steady_mean``.  The states
    passed to callbacks and returned carry only (t, u, rho).

    Each step is passed the levels one and two dt back as ``earlier``, as
    far as the history holds them at the current dt, from which
    ``fixed_point_step`` extrapolates its start: quadratically from three
    levels, linearly from two (step 2 and the second step after a
    halving); step 1 and the first step after a halving have none and
    start from rho_n and u_n.  A level keeps its fields' zz, xz and z
    while a predictor can still read them, and their xx and its forcing
    only while it is the newest (their hat is the reports' ``u_hat``).
    Within the step it mixes the interface iterates by a secant step and
    stops on the unmixed pair, so the accepted state is an output of the
    step's map.

    u0 must have the grid's shape (n_x, n_z) and rho0 the shape (n_x,),
    and t_end must be finite and >= 0; ``run`` raises ConfigError before
    any step otherwise.

    Every StefanSimError raised while a level is made (the initial level
    is step 0) is stamped with that step and its time (``at_step``), so
    its message begins ``step n (t=...): ``.
    """
    require_whole_steps(t_end, cfg.dt)
    grids = cfg.grids()
    u0 = np.asarray(u0, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    if u0.shape != grids.shape or rho0.shape != (cfg.n_x,):
        raise ConfigError(f"u0 of shape {u0.shape} and rho0 of shape {rho0.shape} do not fit "
                          f"the grid: they need {grids.shape} and {(cfg.n_x,)}")
    level = make_level(0.0, u0, rho0, cfg)
    steady_level = steady_mean(level)
    history = deque(maxlen=max(cfg.k_diag + 2, 3))
    history.append(level)
    reports, t_new = [], 0.0  # a report per level made; the next level's time
    m, n_steps = 0, round(t_end / cfg.dt)  # steps of the current dt: taken, in all
    halvings = 0
    try:
        reports.append(_make_report(history, cfg, steady_level, None, compute_identity))
        while m < n_steps:
            t_new = t_end if m + 1 == n_steps else (m + 1) * cfg.dt
            try:  # with the levels one and two dt back, as far as the history holds them
                new, step_report = fixed_point_step(
                    level, cfg, t_new=t_new, forcing=forcing,
                    earlier=tuple(islice(reversed(history), 1, 3)))
            except (FixedPointError, LinearSolveError):
                if halvings >= cfg.max_dt_halvings:
                    raise
                halvings += 1
                cfg = replace(cfg, dt=cfg.dt / 2.0)
                m, n_steps = 2 * m, 2 * n_steps
                history.clear()
                history.append(level)
                continue
            if step_report.trace_gap > cfg.trace_tol:
                raise FixedPointError(
                    f"accepted step violates trace consistency: |u(.,0)-kappa(rho)-g| "
                    f"= {step_report.trace_gap:.3e} > {cfg.trace_tol:.1e}")
            level, m = new, m + 1
            history.append(level)
            # the next step reads this level's fields and forcing, its
            # predictor the lagged fields of the two levels before it
            if len(history) >= 2:
                older = history[-2]
                older.fields, older.forcing = older.fields._replace(xx=None), None
            if len(history) >= 4:
                history[-4].fields = None
            report = _make_report(history, cfg, steady_level, step_report, compute_identity)
            reports.append(report)
            for cb in callbacks:
                cb(State(t=level.t, u=level.u, rho=level.rho), report)
    except StefanSimError as exc:
        exc.at_step(len(reports), t_new)  # the level being made
        raise
    return RunResult(reports=reports, state=State(t=level.t, u=level.u, rho=level.rho), cfg=cfg,
                     steady_level=steady_level)
