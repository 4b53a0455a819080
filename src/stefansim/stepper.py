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
operator  M = 1/dt + theta k^2 - theta a_mean(z) d_zz  is tridiagonal on
the mode's whole column, and so is M~, the same operator with the
harmonic x-mean a_harmonic(z) = 1 / mean_x(1/a) in place of the mean
a_mean(z) = mean_x a.  ``run`` factors both from the weight a of the
level a dt starts from, one factorization of all modes' columns each (a
``_BulkLU``), and hands them to every step of the dt; a halving drops
them with the history.  The jump response sigma_k that stabilizes the
interface update and the unit Dirichlet response w that corrects
iterate 1 come from M's factors, once per dt.

The lag loop solves the *full* frozen-coefficient discrete system
A u = b to ``lin_tol``, so the two operators only precondition it and
the solution does not depend on which interface they were taken at.
Lag iteration 1 solves M u = b + N u_start, where N = M - A is the
lagged rest, theta ((a - a_mean) u_zz - B u_xz - c u_z), of the loop's
start.  Every later iteration is one defect correction from the full
residual r = A u - b that the iteration before measured, in the real
layout and with zero Dirichlet data, the sweeps alternating:
  - even iterations (2, 4, ...): u <- u - M~^-1 ((a_harmonic / a) r),
    the harmonic sweep, whose row weight makes the weight of u_zz the
    x-constant a_harmonic;
  - odd iterations (3, 5, ...): u <- u - M^-1 r, the mean sweep, which is
    the plain lag iteration M^-1 (b + N u) in residual form.
The lagged (a - a_mean) u_zz sets the mean sweep's contraction (about
0.43 per sweep on the benchmark's manufactured column); the harmonic
sweep leaves instead the mismatch of the weighted mass and d_xx terms,
small where d_zz dominates, so the pair contracts much faster there.
Where 1/dt dominates d_zz the harmonic sweep contracts worse than the
mean sweep, and a solve can take a lag iteration more.  A solve that
its first lag iteration ends makes one substitution and never builds
the weight a_harmonic / a.  Walls use mirror-ghost elimination
(second-order Neumann); the interface row is a Dirichlet row.

The loop is a map G: rho_m -> rho_next: u_m only warm-starts the next lag
loop, which reuses the fields u_m's solve returned (after iterate 1, those
of its corrected u, below).  Iterate 1 starts from ``_extrapolate``'s
polynomial through the step's level and the earlier levels ``run``'s
history holds at the current dt, up to three in all, taken one dt on: the
interface from 3 rho_n - 3 rho_{n-1} + rho_{n-2} (three levels),
2 rho_n - rho_{n-1} (two: step 2 and the second step after a dt
halving) or rho_n (one: step 1 and the first step after a halving), and
the lag loop from the same combination of the temperatures and of their
fields (no transform), which for one level is that level's u and fields
bitwise.  The trajectory is smooth in t (perturbed flat states relax
smoothly), so the quadratic predictor is off by O(dt^3).  Iterate 1's
difference is measured against u_old.  Iterate 1's u was solved with the
predictor's Dirichlet data d_1; once its interface update is done, u is
corrected to first order for the next iterate's data d_2: per mode,
u_hat + w rfft(d_2 - d_1), where w is the LU's solve with unit Dirichlet
data (``_BulkLU.dirichlet_response``, which also gives the jump
response).  The corrected u, with its lagged fields, starts iterate 2's
lag loop and is what iterate 2's difference is measured against.  On a
smooth step iterate 1's interface image is all but converged and only
its u lags, so iterate 2 ends the step.  Only iterate 1 is corrected:
the later iterates of a step that needs them come from how the frozen
coefficients change with rho, which the correction does not model, so
correcting them too would add transforms and save no iterate.  Each
later rho_m is a secant step (Anderson mixing of depth 1) from the last
two iterates and their images; it falls back to the plain image, and
mixes again from the next iterate, when the residual does not change or
when a mixed iterate's difference exceeds the one before.  The stopping
test ``diff <= fp_tol`` reads the unmixed pair (u_next, rho_next) against
(u_m, rho_m), and that pair is the accepted state: a true output of G.

Each solve is held only to the accuracy the loop needs (the forcing
terms of inexact Newton methods: Dembo, Eisenstat and Steihaug, SIAM J.
Numer. Anal. 19, 1982; Eisenstat and Walker, SIAM J. Sci. Comput. 17,
1996).  Iterate 1 ends on the residual test alone: at FIRST_SOLVE_TOL
when the step before took at least LOOSE_FIRST_AFTER iterates, else at
lin_tol.  Its u is replaced by the Dirichlet correction, and a step
never accepts a loose iterate 1.  A loose iterate 1 adds at most one
iterate, but it can add one to a step that would end at iterate 2, so
only steps after long ones loosen it (after 3 the rule feeds itself).
A later solve ends once the residual test holds at lin_tol and its last
lag update, in the fixed-point norm, is at most min(WARM_FP_FRACTION, r)
of the previous fixed-point difference, r the loop's last measured
contraction (from iterate 3 on), but at least WARM_TOL_FRACTION (one
half) of fp_tol, as an update below what ends the step moves the
accepted state only at roundoff; or once it has not halved since the
update before and is at most FLOOR_SHARE of u's own norm: the loop is
then at its roundoff floor (see ``temperature_step``).  So warm solves
are tightened only where the fixed-point loop contracts fast, and never
past what ends the step.  When the lag loop stops contracting, its
residual no longer falling over a few iterations, the same loop goes on
from its best iterate by GCR steps (generalized conjugate residual:
Eisenstat, Elman and Schultz, SIAM J. Numer. Anal. 20, 1983) along its
own sweeps; the final check is the same full residual.

Every bulk solve works on a real layout of the tangential modes: an
array (2, n_x/2 + 1, n_z) of the rfft's real parts, then its imaginary
parts (``grids.RealTransforms``).  The transforms are products with
cached real matrices, one BLAS call each, and each operator, being
real, solves both blocks as two right-hand sides of one substitution.
Each iterate transforms each field once.  A lag iteration makes one
forward product (lag iteration 1's right-hand side, or a sweep's
weighted residual), one substitution (a sweep subtracts its result from
the coefficients of the iterate before) and two inverse products from
the solve's coefficients: u_new, and u_x stacked with u_xx; u_xz is the
d_z stencil of the real u_x, taken in u_x's place, u_zz and u_z stencils
of u_new, and those fields serve the residual.  The iterate is checked
for finiteness through its residual, once.  The complex rfft of the
solve's u, which the fixed-point norm, the level records and the
reports read, is assembled once per solve.  A fixed-point iterate
transforms rho_m once (numpy's FFT, as every interface transform): its
slope and second derivative, the resolution check and the curvature
Dirichlet data and the interface update all share that FFT, taken at
the end of the iterate before (iterate 1's in the step's set-up).  The
correction of iterate 1's u costs two inverse products (u and u_x; a
lag loop's start needs no xx).  The converged step's trace gap
max |u(., 0) - kappa(rho) - g| comes from the accepted rho's FFT;
``run`` checks it against trace_tol.

Each time level is a ``Level`` record, built once by ``make_level``: t,
u, rho, the final solve's ``_bulk_fields`` of u (its rfft included),
rho's rfft, slope and second derivative, the conserved quantity Q, the
forcing's values at t and, once the identity has read it, the model
energy.  A step reads u_old's fields, the old interface's transforms
and, at theta < 1, the old forcing from the old level, so it transforms
no field of that level and evaluates the forcing once per level; it
returns the new level.  ``run`` keeps the records whole, as built, in
its bounded history only, and its reports read their transforms, Q and
model energies.

The stages read their records and cfg, whose ``grids()`` and
``cutoff()`` are shared instances: ``fixed_point_step(level, cfg,
t_new=..., bulk=..., fp_norm=..., forcing=..., earlier=...,
prev_iters=...)``,
``interface_step(u_new, old, cfg, ...)``, which reads rho's rfft from
the old level, and every solve's one call shape
``temperature_step(step, coef, dirichlet=..., start=..., res_tol=...,
update_tol=...)``.  ``step`` is the ``_Step`` that ``_prepare_step``
builds once per time step, before the first iterate, around the dt's
LU and norm; the iterate adds its frozen coefficients, Dirichlet data,
lag-loop start and the two targets its solve ends on.  The steady solve of
``compatible_initial_temperature`` factors its own LU, with 1/dt = 0 and
theta = 1, for a ``_Step`` with no norm, and solves to lin_tol.
``make_level`` and the diagnostics read the same cfg.

The fixed-point norm (``state_energy_k0`` with an ``EnergyNormK0``) is
frozen per dt, like the operator: ``run`` builds it beside the dt's
``_BulkLU``, from the weights a and <rho> of the one ``norm_weights``
call at the level the dt starts from, and hands it to every step of the
dt.  It makes no 2-D transform: the solve's Fourier coefficients
travel with the fields it returns, so the bulk terms int w^2 + w_x^2 of
the fixed-point difference are a Parseval sum over the difference of
the two solves' coefficients (u_old's at iterate 1), and those of a warm
solve's lag update over x_hat - prev_hat.  The a-weighted
normal-derivative term is a stencil sum, and only the fixed-point
difference has interface terms, from one 1-D FFT and one batched inverse
FFT.

The bulk operator's rows are scaled so that it is symmetric positive
definite, and its factorization is LAPACK's ``dpttrf`` and its
substitution ``dpttrs``, called by ctypes from the LAPACK numpy is
linked against: numpy's wheels ship an ILP64 OpenBLAS, already loaded,
that exports them as ``scipy_dpttrf_64_`` and ``scipy_dpttrs_64_``.  So
a run does not import scipy, which loads an OpenBLAS of its own.  Where
numpy's library lacks the two symbols (another BLAS, a source build)
they come from ``scipy.linalg.lapack`` instead; ``_pt_lapack`` decides
once, at import.
"""
from __future__ import annotations

import ctypes
import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import islice
from typing import ClassVar, NamedTuple

import numpy as np

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
    real_transforms,
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
    lin_max_iter: ClassVar[int] = 200  # lag iterations, GCR steps included
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
    lin_residual: float  # full relative residual of the accepted solve, at most lin_tol
    lag_iters: int
    trace_gap: float  # max |u(., 0) - kappa(rho) - g| of the accepted state

    @property
    def inner_iters(self):
        return len(self.fp_norms)


# Targets of a step's temperature solves (set by ``fixed_point_step``):
# iterate 1 solves to this full residual after a step of at least
# LOOSE_FIRST_AFTER fixed-point iterates, else to lin_tol ...
FIRST_SOLVE_TOL = 1e-9
LOOSE_FIRST_AFTER = 4
# ... and a later solve, once at lin_tol, accepts when its last lag
# update, in the fixed-point norm, is at most min(this share, r) of the
# previous fixed-point difference, r the loop's last contraction ...
WARM_FP_FRACTION = 1e-3
# ... but no target is below this share of fp_tol, a factor 2 under the
# difference that ends the step ...
WARM_TOL_FRACTION = 0.5
# ... or when it is more than this share of the update before and at most
# FLOOR_SHARE of the new u's own norm: the loop has stopped contracting, at
# the roundoff floor
FLOOR_RATIO = 0.5
FLOOR_SHARE = 1e-13
# the lag loop has stalled when its residual has not fallen over this many
# lag iterations; the solve then goes on by GCR steps
STALL_WINDOW = 3


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
    ``make_level``: u's ``_bulk_fields`` (its rfft ``fields.hat``
    included), rho's rfft and slope and second derivative, the conserved
    quantity Q and ``forcing``, the forcing's (bulk, Dirichlet, jump)
    values at t (None if not evaluated).  Only ``E_bar``, the pair
    (epsilon, model energy) that ``identity.model_energy`` caches, is
    filled on first use.

    ``run`` keeps levels whole, as built, in its bounded history only: the
    step from a level reads its fields and its forcing, the predictors of
    the two steps after it the fields' zz, xz and z, and the reports the
    rest.  The states it hands to callbacks and returns are plain
    ``State``s, so a caller that keeps every state keeps none."""
    fields: _Fields = None
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
        x = real_transforms(grids.tangential.n_x).forward(u)
        fields = _bulk_fields(u, x, grids, _complex(x))
    rho_hat, rho_x, rho_xx = _interface_transforms(rho, grids.tangential.n_x)
    return Level(t=t, u=u, rho=rho, fields=fields, rho_hat=rho_hat, rho_x=rho_x, rho_xx=rho_xx,
                 Q=conserved_quantity(u, rho, cfg.cutoff(), grids), forcing=forcing)


def _interface_transforms(rho, n_x):
    """(rfft, slope, second derivative) of the interface rho: every
    tangential derivative of an interface comes from this one FFT."""
    rho_hat = np.fft.rfft(rho)
    return (rho_hat, *d_tangential_hats(rho_hat, n_x, ((1,), (2,))))


def _extrapolate(levels):
    """(rho, (u, fields)) of the polynomial through ``levels``, the newest
    first and one dt apart, taken one dt past the newest: one set of
    weights, (1,) for one level (its own values bitwise), (2, -1) for two
    (2 y_n - y_{n-1}) and (3, -3, 1) for three (3 y_n - 3 y_{n-1} +
    y_{n-2}), combines the interfaces, the temperatures and their fields,
    so no transform.  (u, fields) is the first lag loop's start, which the
    step drops once iterate 1 is done; only zz, xz and z are combined,
    the fields that loop reads of its start, and xx and hat are None."""
    k = len(levels)
    weights = [float((-1) ** j * math.comb(k, j + 1)) for j in range(k)]

    def combine(arrays):  # accumulated in place, newest first
        arrays = iter(arrays)
        out = weights[0] * next(arrays)
        for w, a in zip(weights[1:], arrays, strict=True):
            out += w * a
        return out

    fields = [level.fields for level in levels]
    return combine(level.rho for level in levels), (
        combine(level.u for level in levels),
        _Fields(None, combine(f.zz for f in fields), combine(f.xz for f in fields),
                combine(f.z for f in fields), None))


@dataclass(frozen=True)
class _Step:
    """What every temperature solve of one step shares: the grids, the
    dt's ``_BulkLU`` (which holds 1/dt, 0 for the steady solve, and
    theta), u_old with its ``_bulk_fields`` and norm, the bulk forcing at
    both time levels (zeros without forcing), the norm of their theta
    blend, the part of the right-hand side they fix, u_old / dt + theta
    f_new, and the dt's fixed-point norm (None for the steady solve).
    Made by ``_prepare_step``."""
    grids: Grids
    bulk: _BulkLU
    u: np.ndarray
    fields: _Fields
    norm_u: float
    f_new: np.ndarray
    f_old: np.ndarray
    norm_f: float
    base_rhs: np.ndarray
    fp_norm: EnergyNormK0


def _prepare_step(bulk, u_old, fields_old, forcing_new, forcing_old, grids, fp_norm=None):
    """The ``_Step`` of a step from u_old, whose ``_bulk_fields`` the caller
    holds, with the factored operator ``bulk``; a forcing of None is zero."""
    inv_dt, theta = bulk.inv_dt, bulk.theta
    f_new = np.zeros_like(u_old) if forcing_new is None else np.asarray(forcing_new, dtype=float)
    f_old = np.zeros_like(u_old) if forcing_old is None else np.asarray(forcing_old, dtype=float)
    return _Step(
        grids=grids, bulk=bulk, u=u_old, fields=fields_old,
        norm_u=np.linalg.norm(u_old), f_new=f_new, f_old=f_old,
        norm_f=np.linalg.norm(theta * f_new + (1.0 - theta) * f_old),
        base_rhs=u_old * inv_dt + theta * f_new, fp_norm=fp_norm)


_REAL = np.dtype(np.float64)
_INT_P = ctypes.POINTER(ctypes.c_int64)


def _checked(name, a, dtype, size):
    """a, if it is a C-contiguous ndarray of ``dtype`` with ``size``
    entries; else ValueError.  ctypes hands LAPACK bare pointers, so every
    array is checked before a call, as f2py's wrappers check theirs."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous
            and a.size == size):
        raise ValueError(f"{name}: need a C-contiguous {dtype} array of {size} "
                         f"entries, got {getattr(a, 'dtype', type(a).__name__)} {np.shape(a)}")
    return a


def _pointer(a):
    """A pointer to a's first entry that keeps a alive: three times cheaper
    than one from ``a.ctypes``."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


def _byref_int(value):
    return ctypes.byref(ctypes.c_int64(value))


class _Dpttrf:
    """An ILP64 ``dpttrf`` by ctypes, with ``scipy.linalg.lapack.dpttrf``'s
    arguments and results: (d, e, info) = dpttrf(d, e) factors the
    symmetric positive definite tridiagonal matrix of float64 diagonal d
    and off-diagonal e as L D L^T into new arrays (the inputs are kept)."""

    def __init__(self, routine):
        self.routine = routine

    def __call__(self, d, e):
        n = np.size(d)
        d, e = (_checked(name, a, _REAL, size).copy()
                for name, a, size in (("d", d, n), ("e", e, max(n - 1, 0))))
        info = ctypes.c_int64()
        self.routine(_byref_int(n), _pointer(d), _pointer(e), ctypes.byref(info))
        return d, e, info.value


class _Dpttrs:
    """An ILP64 ``dpttrs`` by ctypes, with ``scipy.linalg.lapack.dpttrs``'s
    arguments but in place: (b, info) = dpttrs(d, e, b) overwrites b with
    the solution.  d and e are the ``dpttrf`` factors of an n by n
    system, and b, float64 and C-contiguous, holds nrhs = b.size / n
    right-hand sides one after another in its flat order (LAPACK's
    column-major (n, nrhs) array).

    The factors' arguments (their pointers, n, nrhs and ldb) are checked
    and built at their first solve and kept, with the factors, until a
    solve passes other factor arrays or another nrhs: every solve of one
    of a ``_BulkLU``'s two operators passes the same ones, so a solve
    checks b and builds only its pointer, and a lag loop whose sweeps
    alternate the two rebinds at each sweep (a few microseconds against a
    substitution's tens).  ``bound`` is replaced whole, never edited, so
    concurrent solves read consistent arguments.
    """

    def __init__(self, routine):
        self.routine = routine
        # the bound factors, nrhs, the arguments before b's, and ldb
        self.bound = (None, None), 0, (), None

    def __call__(self, d, e, b):
        n = np.size(d)
        nrhs = np.size(b) // max(n, 1)
        bound, bound_nrhs, head, ldb = self.bound
        if not (d is bound[0] and e is bound[1] and nrhs == bound_nrhs):
            _checked("d", d, _REAL, n)
            _checked("e", e, _REAL, max(n - 1, 0))
            head = (_byref_int(n), _byref_int(nrhs), _pointer(d), _pointer(e))
            ldb = _byref_int(max(n, 1))
            self.bound = (d, e), nrhs, head, ldb
        _checked("b", b, _REAL, nrhs * n)
        info = ctypes.c_int64()
        self.routine(*head, _pointer(b), ldb, ctypes.byref(info))
        return b, info.value


def _pt_lapack(lib):
    """(dpttrf, dpttrs) of the bulk LU: ``_Dpttrf`` and ``_Dpttrs`` on
    lib's ``scipy_dpttrf_64_`` and ``scipy_dpttrs_64_``, the names
    OpenBLAS's ILP64 build for numpy and scipy gives them; if lib is None
    or lacks either, ``scipy.linalg.lapack``'s, dpttrs made in place
    alike.  Both pairs give the same factors and solutions bitwise."""
    try:
        factor, substitute = lib.scipy_dpttrf_64_, lib.scipy_dpttrs_64_
    except AttributeError:
        from scipy.linalg import lapack

        def dpttrs(d, e, b):
            # b's right-hand sides as the columns of a Fortran-ordered view
            x, info = lapack.dpttrs(d, e, b.reshape(-1, np.size(d)).T, overwrite_b=1)
            return x.T.reshape(b.shape), info

        return lapack.dpttrf, dpttrs
    factor.restype = substitute.restype = None
    # dpttrf(N, D, E, INFO)
    factor.argtypes = [_INT_P, ctypes.c_void_p, ctypes.c_void_p, _INT_P]
    # dpttrs(N, NRHS, D, E, B, LDB, INFO)
    substitute.argtypes = [_INT_P, _INT_P] + [ctypes.c_void_p] * 3 + [_INT_P, _INT_P]
    return _Dpttrf(factor), _Dpttrs(substitute)


def _numpy_lapack():
    """numpy's linear-algebra extension, through which the symbols of the
    LAPACK numpy is linked against resolve; None if it cannot be loaded."""
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


_dpttrf, _dpttrs = _pt_lapack(_numpy_lapack())


def _thomas_batched(d, e, row_scale, rhs, dirichlet, mid):
    """Solve the row-scaled bulk systems of the ``dpttrf`` factors (d, e)
    for both blocks of the real layout at once, by one ``_dpttrs`` call.

    rhs: the unscaled right-hand side (2, modes, n_z), each mode's column
    in z order and the modes end to end, real parts first; it is kept.
    Its rows are scaled by ``row_scale`` (n_z,) into a new array whose
    interface row ``mid`` holds the Dirichlet values ``dirichlet`` (2,
    modes) and whose rows mid - 1 and mid + 1 gain them, the scaled
    coupling of the interface row being -1.  Returns the solution, in
    rhs's shape.  On numpy's LAPACK a factor or scaled right-hand side of
    another dtype, layout or length raises ValueError before the call.
    The name and the right-hand side as fourth positional argument are
    what ``bench/workload.py`` traces the bulk solve by.
    """
    b = np.multiply(rhs, row_scale, order="C")
    b[:, :, mid - 1] += dirichlet
    b[:, :, mid] = dirichlet
    b[:, :, mid + 1] += dirichlet
    x, info = _dpttrs(d, e, b)
    if info != 0:
        raise LinearSolveError(f"banded substitution failed (dpttrs info={info})")
    return x


class _BulkLU:
    """Per-mode implicit operators  1/dt + theta k^2 - theta m(z) d_zz  on
    the whole column, for two x-means m of one weight field a, each
    factored once (``run`` makes one LU per dt; see the module docstring):
    the mean a_mean(z) = mean_x a and the harmonic mean a_harmonic(z) =
    1 / mean_x (1/a).  Both only precondition the lag loop, which solves
    the full frozen-coefficient system whatever they are; 1/dt (``inv_dt``)
    and theta are the step's.  ``a`` is the field (n_x, n_z), or one
    x-constant profile (n_z,), whose two means are then itself.

    Each mode's column runs in z order, lower wall first, and the modes are
    laid end to end, the layout of one block of the solve's real layout
    (2, modes, n_z) (``grids.RealTransforms``): the operator is real, so
    the real and the imaginary parts are two right-hand sides of one
    system.  Each row is scaled by dz^2 / (theta m(z)), halved on the
    walls, so every off-diagonal is -1; the interface row is an identity
    row holding the Dirichlet value, and its two neighbours' couplings to
    it move into their right-hand sides, so it couples to nothing.  The
    scaled operator is then symmetric and diagonally dominant with a
    decoupled Dirichlet row, so positive definite: one ``dpttrf`` factors
    it, per mean, and every solve is one ``dpttrs`` call over both blocks.
    Raises LinearSolveError unless a > 0, or if a factorization fails.
    ``transforms`` are the grid's ``RealTransforms``.
    """

    def __init__(self, a, inv_dt, theta, grids):
        a = np.atleast_2d(a)  # a profile is one row
        if not np.all(a > 0.0):
            raise LinearSolveError(f"bulk operator needs a_mean > 0 and a > 0, "
                                   f"got min {float(np.min(a))}")
        modes = grids.tangential.n_x // 2 + 1
        self.shape = (2, modes, grids.normal.n_z)  # the real layout
        self.transforms = real_transforms(grids.tangential.n_x)
        self.a_mean = a.mean(axis=0)
        self.a_harmonic = 1.0 / (1.0 / a).mean(axis=0)
        self.inv_dt, self.theta = inv_dt, theta
        self.mid = grids.normal.i_mid
        self.dz = grids.normal.dz
        self.row_scale, self.factors = self._factor(self.a_mean, grids)
        self.harmonic_row_scale, self.harmonic_factors = self._factor(self.a_harmonic, grids)

    def _factor(self, m, grids):
        """(row scale, ``dpttrf`` factors) of the operator with the mean m."""
        n_z, mid, dz, modes = grids.normal.n_z, self.mid, self.dz, self.shape[1]
        scale = dz**2 / (self.theta * m)
        scale[[0, -1]] *= 0.5
        scale[mid] = 1.0
        k2 = np.arange(modes, dtype=float) ** 2
        centre = np.full(n_z, 2.0)  # the scaled coefficient of u_j in -dz^2 u_zz ...
        centre[[0, -1]] = 1.0  # ... halved on the mirror-ghost walls, u_zz ~ 2(u_1 - u_0)/dz^2
        diag = (self.inv_dt + self.theta * k2[:, None]) * scale + centre  # (modes, n_z)
        diag[:, mid] = 1.0
        off = -np.ones((modes, n_z))  # row j's coupling to row j + 1
        off[:, mid - 1:mid + 1] = 0.0  # the Dirichlet row couples to nothing
        off[:, -1] = 0.0  # nor does a mode's column to the next one's
        d, e, info = _dpttrf(diag.ravel(), off.ravel()[:-1])
        if info != 0:
            raise LinearSolveError(f"bulk operator is not positive definite (dpttrf info={info})")
        return scale, (d, e)

    def solve(self, rhs, dirichlet, harmonic=False):
        """The real layout (2, modes, n_z) of the per-mode solution for
        the right-hand side rhs (2, modes, n_z; the interface row is
        ignored) and the interface Dirichlet values (2, modes), both in
        the real layout, with the operator of a_mean, or of a_harmonic if
        ``harmonic``.  Neither argument is changed, and the interface row
        of the result is ``dirichlet``."""
        if harmonic:
            return _thomas_batched(*self.harmonic_factors, self.harmonic_row_scale, rhs,
                                   dirichlet, self.mid)
        return _thomas_batched(*self.factors, self.row_scale, rhs, dirichlet, self.mid)

    @cached_property
    def dirichlet_response(self):
        """Per-mode solution w (modes, n_z) of the homogeneous solve with
        unit Dirichlet data, by one substitution on first use, so once per
        LU: the solution's first-order change under a change dd_hat of the
        Dirichlet data is w dd_hat, mode by mode.  Its interface row is 1."""
        unit = np.zeros(self.shape[:2])
        unit[0] = 1.0
        return self.solve(np.zeros(self.shape), unit)[0].copy()

    @cached_property
    def jump_response(self):
        """Per-mode normal-derivative jump sigma of ``dirichlet_response``,
        once per LU: the diagonal linear model of the curvature ->
        temperature -> jump chain, used to make the interface update
        contractive at high wavenumbers.  ``fixed_point_step`` also reads
        the response itself, to correct iterate 1's temperature (no second
        substitution)."""
        mid, w = self.mid, self.dirichlet_response
        return (6.0 - 4.0 * (w[:, mid + 1] + w[:, mid - 1])
                + (w[:, mid + 2] + w[:, mid - 2])) / (2.0 * self.dz)


def _d_z(v, grids, out=None):
    """Centred d_z along the last axis of the real field v (any memory
    layout), into ``out`` (a new array if None; v itself is allowed); 0
    on the walls (Neumann) and on the interface row.  Taken on the
    flattened field, whose differences reach across x rows only on the
    wall rows, which are then set."""
    dz, mid = grids.normal.dz, grids.normal.i_mid
    f = np.ravel(v)
    out = np.empty(v.shape) if out is None else out
    flat = out.reshape(-1)
    np.subtract(f[2:], f[:-2], out=flat[1:-1])  # numpy buffers an overlap of v and out
    flat[1:-1] /= 2.0 * dz
    out[:, 0] = out[:, mid] = out[:, -1] = 0.0
    return out


def _lagged_fields(v, v_x, grids):
    """(v_zz, v_xz, v_z) of the bulk field v with tangential derivative
    ``v_x``, the derivatives the lagged part of the operator reads: v_xz is
    ``_d_z`` of v_x, taken in place (v_x, C-contiguous, is overwritten),
    v_zz (mirror-ghost walls, on the flattened field as in ``_d_z``) and
    v_z are stencils on v.  Interface rows are zero; no finiteness
    check."""
    dz, mid = grids.normal.dz, grids.normal.i_mid
    f = np.ravel(v)
    v_zz = np.empty(v.shape)
    v_zz.reshape(-1)[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dz**2
    v_zz[:, 0] = 2.0 * (v[:, 1] - v[:, 0]) / dz**2
    v_zz[:, -1] = 2.0 * (v[:, -2] - v[:, -1]) / dz**2
    v_zz[:, mid] = 0.0
    return v_zz, _d_z(v_x, grids, out=v_x), _d_z(v, grids)


def _complex(x):
    """The complex (modes, ...) coefficients of the real layout x."""
    hat = np.empty(x.shape[1:], dtype=complex)
    hat.real, hat.imag = x
    return hat


def _real_layout(hat):
    """The real layout (2, modes, ...) of the complex coefficients hat."""
    return np.stack((hat.real, hat.imag))


def _bulk_fields(v, x, grids, hat=None):
    """(v_xx, v_zz, v_xz, v_z, hat) of the bulk field v whose rfft along x
    has the real layout x, as a ``_Fields``: v_x and v_xx come from one
    stacked inverse product (``RealTransforms.derivatives``), and v_xz,
    ``_d_z`` of v_x, is taken in place of v_x, so the field set holds
    the one buffer whole; the rest are ``_lagged_fields``.  The interface
    row of every derivative is zero: the solve ignores it, and the
    operator's value there is replaced by the Dirichlet condition.  hat,
    the complex coefficients (for the fixed-point norm and the level
    records), rides along."""
    v_x, v_xx = real_transforms(v.shape[0]).derivatives(x)
    v_xx[:, grids.normal.i_mid] = 0.0
    return _Fields(v_xx, *_lagged_fields(v, v_x, grids), hat)


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
    xx, a_zz, b_xz, c_z = fields.xx, coef.a * fields.zz, coef.B * fields.xz, coef.c * fields.z
    scale = np.linalg.norm(xx) + np.linalg.norm(a_zz) + np.linalg.norm(b_xz) + np.linalg.norm(c_z)
    a_zz += xx
    a_zz -= b_xz
    a_zz -= c_z
    return a_zz, scale


def temperature_step(step, coef, *, dirichlet, start, res_tol, update_tol):
    """Solve the theta-implicit frozen-coefficient temperature problem.

    ``step`` is the ``_Step`` every solve of one time step shares (the
    grids, the dt's factored operators with their 1/dt and theta, u_old's
    fields and norm, the forcing, the fixed part of the right-hand side
    and the fixed-point norm); ``coef`` holds the frozen coefficients,
    ``dirichlet`` the interface values and ``start`` the last iterate (u,
    its ``_bulk_fields``, of which the loop reads no xx), where the lag
    loop starts.  ``res_tol`` and ``update_tol`` are the solve's residual
    and update targets (exit rule below).  A step with inv_dt = 0 gives
    the steady solve used to build compatible initial data.

    Returns (u_new, final_residual, lag_iterations, fields): fields are
    u_new's ``_bulk_fields``, its complex rfft included (assembled once,
    from the real layout of the final solve), which a solve warm-started
    from u_new and the fixed-point norm reuse, and lag_iterations counts
    the loop's iterations, GCR steps included.  Raises
    LinearSolveError if the solve cannot reach ``res_tol`` and
    NonFiniteFieldError on a non-finite iterate.

    Sweeps.  Lag iteration 1 solves M u = b + N u_start with the start's
    lagged fields (N = M - A lags whatever of ``coef.a`` a_mean leaves
    out, and B and c).  Each later one corrects the iterate before by its
    full residual r, with zero Dirichlet data: even iterations by the
    harmonic sweep, subtracting M~^-1 ((a_harmonic / a) r), odd ones by
    the mean sweep, subtracting M^-1 r (``_BulkLU``; the weight
    a_harmonic / a is made at the solve's first harmonic sweep, so a
    one-iteration solve makes none).

    Every bulk solve works on the real layout of the tangential modes
    (``grids.RealTransforms``).  A lag iteration makes one forward
    product (iteration 1's right-hand side, or the sweep's residual), one
    ``dpttrs`` substitution over both blocks (through ``_thomas_batched``,
    both sweeps alike), a sweep's one subtraction in the real layout, and
    two inverse products: u_new, and u_x stacked with u_xx
    (``_bulk_fields``).  The fields serve the residual, whose field the
    next sweep corrects by.  An iterate is checked for finiteness
    through its relative residual, which any non-finite entry of u_new
    makes non-finite: only then is u_new searched for the entry
    (``_require_finite``), so the error names the lag iteration and the
    index.

    Exit rule.  Every solve ends with ``full residual <= res_tol``,
    checked on the returned u.  When ``update_tol`` is finite, the loop,
    once the residual test holds, also measures the last lag update in
    the step's fixed-point norm (``state_energy_k0`` on the update's
    Fourier coefficients and without the interface terms, which are 0: no
    transform).  It accepts when that update is at most ``update_tol``, or
    is more than FLOOR_RATIO (one half) of the update before it and at
    most FLOOR_SHARE of u_new's own norm (made only then): a loop whose
    sweeps contract, the pair by far more than that, no longer does, so
    its updates are roundoff.  Without the second test a sweep pair that
    contracts by less than half, far above the floor, would end the solve
    there.  This floor exit is the solve's own stop: on a state of large
    norm the updates' roundoff lies above any ``update_tol``, and without
    it warm solves run to ``lin_max_iter``.  A residual test alone would
    end warm solves at residuals far below lin_tol yet carry the lag
    loop's contraction into the fixed-point iterates.  An inf
    ``update_tol`` (iterate 1, the steady solve) skips the update test,
    and so needs no norm, nor the start's xx and hat.
    ``fixed_point_step`` sets both targets from what its loop needs (see
    there).

    GCR steps.  If the residual has not fallen over STALL_WINDOW lag
    iterations, the sweeps have stopped contracting (or diverge), and the
    loop goes on from its best iterate, within the same ``lin_max_iter``
    iterations, by GCR steps (generalized conjugate residual): each later
    iteration's sweep z of the measured residual is made A-orthogonal to
    the directions taken since the stall (their A p orthonormal), and the
    iterate moves along it by the length that minimizes the full
    residual.  A z, with zero Dirichlet data, reads z's ``_bulk_fields``,
    so a GCR iteration makes one forward product and two of each inverse
    one; each direction keeps p in the real layout and A p on the grid.
    """
    grids, bulk = step.grids, step.bulk
    transforms = bulk.transforms
    inv_dt, theta = bulk.inv_dt, bulk.theta
    u_old, f_new = step.u, step.f_new
    max_iter = SolverConfig.lin_max_iter
    mid = grids.normal.i_mid

    base_rhs = step.base_rhs
    old_part, scale_old = None, 0.0
    if theta < 1.0:
        L_old, scale_old = _interior_operator(coef, step.fields)
        old_part = (1.0 - theta) * (L_old + step.f_old)  # the old level's explicit share
        base_rhs = base_rhs + old_part

    dir_x = _real_layout(np.fft.rfft(dirichlet))
    zero_dir = np.zeros_like(dir_x)

    def measure(u_new, fields, what):
        """u_new's full residual field and relative full residual; a
        non-finite residual raises, naming ``what`` and u_new's first
        non-finite entry if it has one."""
        L_new, scale_new = _interior_operator(coef, fields)
        L_new += f_new
        L_new *= theta
        r = u_new - u_old
        r *= inv_dt
        r -= L_new
        if theta < 1.0:
            r -= old_part
        r[:, mid] = 0.0
        # backward-error scale: the 1/dt mass terms belong to the system
        # data, so they enter through ||u||, not ||du|| (which cancels to
        # roundoff as dt -> 0 and would make the tolerance unreachable)
        scale = (inv_dt * max(np.linalg.norm(u_new), step.norm_u)
                 + theta * scale_new + (1.0 - theta) * scale_old
                 + step.norm_f + 1e-300)
        residual = np.linalg.norm(r) / scale
        if not math.isfinite(residual):
            _require_finite(u_new, what)
        return r, residual

    weight = None  # a_harmonic / a, made at the solve's first harmonic sweep

    def sweep(r, harmonic):
        """Real-layout coefficients of the defect correction of the full
        residual r (zero Dirichlet data): M^-1 r, or with ``harmonic``
        M~^-1 ((a_harmonic / a) r)."""
        nonlocal weight
        if harmonic:
            if weight is None:
                weight = bulk.a_harmonic / coef.a
            r = weight * r
        return bulk.solve(transforms.forward(r), zero_dir, harmonic)

    directions = None  # (p, A p) of each GCR step since a stall, |A p| = 1

    def gcr_step(z, r):
        """The GCR step along the sweep z (real layout) from the iterate of
        full residual r: z made A-orthogonal to ``directions``, to which it
        is added, times the step length that minimizes the residual."""
        v = transforms.inverse(z)
        az, _ = _interior_operator(coef, _bulk_fields(v, z, grids))
        az *= -theta
        az += inv_dt * v  # A z, with zero Dirichlet data
        az[:, mid] = 0.0
        for p, ap in directions:
            beta = np.vdot(ap, az)
            z = z - beta * p
            az -= beta * ap
        norm = np.linalg.norm(az)
        directions.append((z / norm, az / norm))
        return np.vdot(az, r) / norm**2 * z

    u_prev, fields = start
    # the update test below reads the start's hat, which an extrapolated
    # start (``_extrapolate``) leaves None: such a start must skip the test
    assert fields.hat is not None or update_tol == np.inf, "start without hat needs no update test"
    start_hat, x_prev = fields.hat, None  # the coefficients of the iterate before
    # lag iteration 1: M^-1 (b + N u_start), N lagging what a_mean leaves of
    # a, and B and c
    lagged = (coef.a - bulk.a_mean) * fields.zz - coef.B * fields.xz - coef.c * fields.z
    x = bulk.solve(transforms.forward(base_rhs + theta * lagged), dir_x)
    best, residuals = None, []
    last_update = np.inf
    for it in range(1, max_iter + 1):
        if it > 1:  # a sweep: harmonic at even iterations, a_mean at odd ones
            u_prev, x_prev = u_new, x
            z = sweep(r, harmonic=it % 2 == 0)
            x = x - (z if directions is None else gcr_step(z, r))
        u_new = transforms.inverse(x)
        fields = _bulk_fields(u_new, x, grids)
        r, residual = measure(u_new, fields, f"temperature iterate (lag iteration {it})")
        if residual <= res_tol:
            if update_tol == np.inf or it == max_iter:
                return u_new, float(residual), it, fields._replace(hat=_complex(x))
            # measured only once the residual test holds
            d_hat = _complex(x) - start_hat if x_prev is None else _complex(x - x_prev)
            update = np.sqrt(state_energy_k0(u_new - u_prev, d_hat, None, step.fp_norm))
            if (update <= update_tol
                    or (update > FLOOR_RATIO * last_update and update <= FLOOR_SHARE * np.sqrt(
                        state_energy_k0(u_new, _complex(x), None, step.fp_norm)))):
                return u_new, float(residual), it, fields._replace(hat=_complex(x))
            last_update = update
        elif directions is None:
            if best is None or residual < best[0]:
                best = (residual, x, u_new, r)
            if len(residuals) >= STALL_WINDOW and residual >= residuals[-STALL_WINDOW]:
                _, x, u_new, r = best  # GCR steps from the best iterate on
                directions = []
            residuals.append(residual)
    raise LinearSolveError(
        f"temperature solve stalled at relative residual {residual:.3e} "
        f"after {max_iter} lag iterations (res_tol={res_tol:.1e})",
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
    step = _prepare_step(_BulkLU(coef.a, 0.0, 1.0, grids), zero.u, zero.fields,
                         None, None, grids)
    u0, _, _, _ = temperature_step(step, coef, dirichlet=curvature_hat(zero.rho_hat, zero.rho_x),
                                   start=(step.u, step.fields), res_tol=SolverConfig.lin_tol,
                                   update_tol=np.inf)
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


def fixed_point_step(level, cfg, *, t_new, bulk, fp_norm, forcing=None, earlier=(),
                     prev_iters=0):
    """One accepted time step, to the level at time t_new (where the
    forcing is evaluated); returns (new_level, StepReport).

    ``bulk`` is the dt's ``_BulkLU`` (its 1/dt and theta must be cfg's):
    its two operators only precondition the lag loop, its jump response damps
    the interface update and its Dirichlet response corrects iterate 1.
    ``fp_norm`` is the dt's ``EnergyNormK0``, which every fixed-point
    difference and warm exit test of the step measures in.

    ``level`` is the ``Level`` of the old time (``make_level`` builds one
    from raw arrays), and the step reads its fields, transforms and, at
    theta < 1, its forcing, which it evaluates (and does not keep) if the
    level holds none; ``earlier`` holds the ``Level``s one and two dt before it,
    newest first, as far as they exist (at most two), and ``prev_iters``
    the fixed-point iterates of the step before (0: none).  The new
    ``Level`` carries the final solve's fields, the accepted rho's
    transforms and the forcing at t_new.

    Iterates the map G: rho_m -> rho_next (temperature solve with the
    curvature of rho_m as Dirichlet data, then interface update; u_m only
    warm-starts the next solve) until the difference of the unmixed pair
    (u_next, rho_next) from (u_m, rho_m), measured in ``fp_norm``, drops
    below fp_tol; the accepted state is that pair, a true output of
    G.  Iterate 1 starts from ``_extrapolate((level, *earlier))`` (see the
    module docstring), and its difference is measured against u_old.
    Unless iterate 1 ends the step, its u is then corrected to first order
    for the change from its Dirichlet data to iterate 2's (computed once,
    and handed to iterate 2) by the LU's ``dirichlet_response``, its
    uncorrected fields dropped first; the corrected u and its lagged
    fields (from one inverse product for u and one for u_x) start
    iterate 2's lag loop and are what iterate 2's difference is measured
    against.  Each later rho_m is the ``_Secant`` mix of the last two
    iterates.  The coefficients are frozen at the theta blend of rho_m
    and level.rho.  The report carries the accepted solve's residual and
    the accepted state's trace gap max |u(., 0) - kappa(rho) - g|.

    Each solve is handed its targets (module docstring): iterate 1 a
    residual target of FIRST_SOLVE_TOL if ``prev_iters`` is at least
    LOOSE_FIRST_AFTER, else lin_tol, and no update target; iterate m >= 2
    lin_tol and min(WARM_FP_FRACTION, diff_{m-1} / diff_{m-2}) diff_{m-1}
    (WARM_FP_FRACTION diff_1 at m = 2), or WARM_TOL_FRACTION fp_tol if
    that is larger.  A loose iterate 1 whose difference is below fp_tol
    goes on to iterate 2.
    """
    grids, cutoff, dt, theta, n_x = cfg.grids(), cfg.cutoff(), cfg.dt, cfg.theta, cfg.n_x
    f_new = f_bulk_new = g_dir = f_jump_new = f_bulk_old = f_jump_old = None
    if forcing is not None:
        f_new = forcing.at(t_new)
        f_bulk_new, g_dir, f_jump_new = f_new
        if theta < 1.0:
            f_bulk_old, _, f_jump_old = (forcing.at(level.t) if level.forcing is None
                                         else level.forcing)
    base_x, base_xx = level.rho_x, level.rho_xx
    u_m, fields_m = level.u, level.fields
    rho_m, start = _extrapolate((level, *earlier))  # start: where the next lag loop starts
    # each iterate's transforms are taken at the end of the iterate before,
    # iterate 1's here
    rho_hat, rx, rxx = _interface_transforms(rho_m, n_x)
    rhs_old = None
    if theta < 1.0:
        rhs_old = (1.0 + base_x**2) * jump_normal_derivative(level.u, grids)
        if f_jump_old is not None:
            rhs_old = rhs_old + f_jump_old
    step = _prepare_step(bulk, level.u, level.fields, f_bulk_new, f_bulk_old, grids,
                         fp_norm=fp_norm)
    sigma = bulk.jump_response

    def dirichlet_data(rho_hat, rx):  # the curvature Dirichlet data of an iterate
        kappa = curvature_hat(rho_hat, rx)
        return kappa if g_dir is None else kappa + g_dir

    mixer = _Secant()
    norms = []
    lin_tol, lag_total = SolverConfig.lin_tol, 0
    # iterate 1's targets: the residual test alone
    res_tol = FIRST_SOLVE_TOL if prev_iters >= LOOSE_FIRST_AFTER else lin_tol
    update_tol = np.inf
    dirichlet = dirichlet_data(rho_hat, rx)
    for m in range(1, cfg.fp_max_iter + 1):
        # frozen at the theta blend of rho_m and level.rho, and of their
        # derivatives; at theta = 1 the blend is rho_m bitwise
        coef = coefficients(theta * rho_m + (1.0 - theta) * level.rho,
                            (rho_m - level.rho) / dt, cutoff, grids,
                            rho_x=theta * rx + (1.0 - theta) * base_x,
                            rho_xx=theta * rxx + (1.0 - theta) * base_xx)
        u_next, lin_res, lag_iters, fields_next = temperature_step(
            step, coef, dirichlet=dirichlet, start=start, res_tol=res_tol, update_tol=update_tol)
        rho_next = interface_step(u_next, level, cfg, rho_x=rx, rho_hat=rho_hat,
                                  jump_response=sigma, jump_forcing=f_jump_new, rhs_old=rhs_old)
        lag_total += lag_iters
        # the bulk difference's coefficients are those of the two solves
        diff = np.sqrt(state_energy_k0(u_next - u_m, fields_next.hat - fields_m.hat,
                                       np.fft.rfft(rho_next - rho_m), step.fp_norm))
        norms.append(diff)
        if diff <= cfg.fp_tol and res_tol == lin_tol:  # never a loose iterate 1
            new = make_level(t_new, u_next, rho_next, cfg, fields=fields_next, forcing=f_new)
            trace = u_next[:, grids.normal.i_mid] - curvature_hat(new.rho_hat, new.rho_x)
            return new, StepReport(
                fp_norms=tuple(norms), lin_residual=lin_res, lag_iters=lag_total,
                trace_gap=float(np.abs(trace if g_dir is None else trace - g_dir).max()))
        rho_m = mixer.next(rho_m, rho_next, diff)
        rho_hat, rx, rxx = _interface_transforms(rho_m, n_x)
        d_next = dirichlet_data(rho_hat, rx)
        if m == 1:
            # correct u_1, solved with the predictor's Dirichlet data, to
            # first order for the next iterate's: u_hat + w rfft(d_next - d_1)
            u_hat = fields_next.hat
            u_hat += bulk.dirichlet_response * np.fft.rfft(d_next - dirichlet)[:, None]
            u_next = fields_next = start = None  # drop the uncorrected fields first
            x = _real_layout(u_hat)
            u_next = bulk.transforms.inverse(x)
            u_x = bulk.transforms.derivatives(x, 1)[0]
            fields_next = _Fields(None, *_lagged_fields(u_next, u_x, grids), u_hat)
        u_m, fields_m = u_next, fields_next
        start = (u_m, fields_m)
        dirichlet = d_next
        # the next solve's targets: lin_tol, and min(WARM_FP_FRACTION, r)
        # of this difference, r the last measured contraction (none yet
        # after iterate 1), but at least WARM_TOL_FRACTION of fp_tol
        ratio = diff / norms[-2] if m >= 2 else np.inf
        res_tol = lin_tol
        update_tol = max(min(WARM_FP_FRACTION, ratio) * diff, WARM_TOL_FRACTION * cfg.fp_tol)
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

    On a failed step (fixed-point non-contraction, or a temperature solve
    that its lag loop, GCR steps included, does not bring to lin_tol
    within lin_max_iter iterations) the step is retried with dt
    halved, up to cfg.max_dt_halvings times, since 1/dt damps both
    iterations; the reduced dt persists for the rest of the run and the
    history buffer restarts (quotients need uniform spacing).  Such a
    failure is a safety net, not how a large dt shows: rho = A sin x on a
    32 x 33 grid from u = 0 steps without one at every dt from 0.01 to
    0.32 for A up to 0.25.  An accepted step whose trace gap exceeds cfg.trace_tol
    raises FixedPointError, without a dt halving.

    The history holds one ``Level`` per accepted level (``make_level``),
    which the next steps and the diagnostics read instead of rebuilding
    it: the step takes u_old's fields, transforms and forcing from it, and
    the reports their quotients' transforms, Q and the model energy; the
    steady level is the initial level's ``steady_mean``.  The states
    passed to callbacks and returned carry only (t, u, rho).

    When a dt starts, ``run`` makes one ``norm_weights`` call at the
    level it starts from, and factors the dt's ``_BulkLU`` and builds its
    fixed-point ``EnergyNormK0`` from its weights.  Each step of the dt is
    passed both; as ``earlier`` the levels one and two dt back, as far as
    the history holds them at the current dt (see the module docstring);
    and as ``prev_iters`` the fixed-point iterates of the last
    accepted step, which set iterate 1's residual target.  The history's
    levels stay whole, as ``make_level`` built them; at theta < 1 the
    initial level is built with the forcing's values at t = 0.  Within
    the step it mixes the interface iterates by a secant step and
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
    # a step at theta < 1 reads the forcing at its old level too
    level = make_level(0.0, u0, rho0, cfg, forcing=(
        forcing.at(0.0) if forcing is not None and cfg.theta < 1.0 else None))
    steady_level = steady_mean(level)
    history = deque(maxlen=max(cfg.k_diag + 2, 3))
    history.append(level)
    reports, t_new = [], 0.0  # a report per level made; the next level's time
    m, n_steps = 0, round(t_end / cfg.dt)  # steps of the current dt: taken, in all
    halvings = 0
    prev_iters = 0  # fixed-point iterates of the last accepted step
    bulk = fp_norm = None  # the current dt's operator and norm, made when the dt starts
    try:
        reports.append(_make_report(history, cfg, steady_level, None, compute_identity))
        while m < n_steps:
            t_new = t_end if m + 1 == n_steps else (m + 1) * cfg.dt
            try:  # with the levels one and two dt back, as far as the history holds them
                if bulk is None:  # the dt starts here, at this level's weights
                    a_psi, bracket = norm_weights(level.rho, level.rho_x, cfg.cutoff(), grids)
                    bulk = _BulkLU(a_psi, 1.0 / cfg.dt, cfg.theta, grids)
                    fp_norm = EnergyNormK0(level.rho_x, a_psi, bracket, cfg)
                new, step_report = fixed_point_step(
                    level, cfg, t_new=t_new, bulk=bulk, fp_norm=fp_norm, forcing=forcing,
                    earlier=tuple(islice(reversed(history), 1, 3)), prev_iters=prev_iters)
            except (FixedPointError, LinearSolveError):
                if halvings >= cfg.max_dt_halvings:
                    raise
                halvings += 1
                cfg = replace(cfg, dt=cfg.dt / 2.0)
                m, n_steps = 2 * m, 2 * n_steps
                history.clear()
                history.append(level)
                bulk = fp_norm = None
                continue
            if step_report.trace_gap > cfg.trace_tol:
                raise FixedPointError(
                    f"accepted step violates trace consistency: |u(.,0)-kappa(rho)-g| "
                    f"= {step_report.trace_gap:.3e} > {cfg.trace_tol:.1e}")
            level, m = new, m + 1
            prev_iters = step_report.inner_iters
            history.append(level)
            report = _make_report(history, cfg, steady_level, step_report, compute_identity)
            reports.append(report)
            for cb in callbacks:
                cb(State(t=level.t, u=level.u, rho=level.rho), report)
    except StefanSimError as exc:
        exc.at_step(len(reports), t_new)  # the level being made
        raise
    return RunResult(reports=reports, state=State(t=level.t, u=level.u, rho=level.rho), cfg=cfg,
                     steady_level=steady_level)
