"""Independent reference values: linearized spectrum, dispersion roots,
manufactured solutions, closed-form curvature.

Everything here is built by a different route than the production solver
(dense eigensolves, transcendental root finding, symbolic differentiation)
so the two can be compared without shared discretization machinery.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import sympy as sp
from scipy.optimize import brentq

from .grids import Grids
from .transform import Cutoff, coefficients

# Leading eigenvalue of the flat-state linearization at tangential
# wavenumber 1 without regularization: root of  lam = -2 m tanh(m),
# m = sqrt(lam + 1), frozen from a 40-digit Newton solve.  Energy of the
# slowest mode decays at twice this rate.
LEADING_RATE_K1 = -0.6417103015671509


def dispersion_residual(lam, k, eps=0.0):
    """F(lam) whose roots are the coupled linearized eigenvalues.

    Modes even in z around the interface satisfy
      (1 + eps k^4) lam = -2 k^2 m tanh(m),  m^2 = lam + k^2,
    continued through m^2 < 0 via m tanh m -> -mu tan mu, mu = sqrt(-m^2).
    """
    m2 = lam + k * k
    if m2 >= 0.0:
        m = np.sqrt(m2)
        mt = m * np.tanh(m)
    else:
        mu = np.sqrt(-m2)
        mt = -mu * np.tan(mu)
    return (1.0 + eps * k**4) * lam + 2.0 * k * k * mt


def dispersion_leading_root(k, eps=0.0):
    """Leading (least negative) coupled eigenvalue at wavenumber k >= 1.

    The root always lies in (-k^2, 0): the residual is negative at -k^2
    and positive at 0, and m tanh m is monotone on that branch.
    """
    if k < 1:
        raise ValueError("leading coupled root is defined for k >= 1")
    lo, hi = -float(k * k) * (1.0 - 1e-12), -1e-300
    return brentq(dispersion_residual, lo, hi, args=(k, eps), xtol=1e-14, rtol=1e-15)


@dataclass(frozen=True)
class LinearizedMode:
    """Spectrum of the flat-state linearization at one tangential wavenumber."""

    k: int
    matrix_dim: int
    eigenvalues: np.ndarray  # sorted by descending real part

    @property
    def leading(self):
        return self.eigenvalues[0]


def linearized_spectrum(k, n_z_dense=201, eps=0.0):
    """Spectrum of the flat-state linearization at wavenumber k.

    Dense generalized eigenproblem on two half-strips (n_z_dense nodes
    each, separate trace nodes at z = 0- and 0+):  lam u = u_zz - k^2 u
    in each half, u(0+-) = -k^2 rho,  u_z(+-1) = 0, and the regularized
    jump relation (1 + eps k^4) lam rho = u_z(0-) - u_z(0+).  Boundary
    and trace rows are algebraic (zero mass-matrix rows); the infinite
    eigenvalues they generate are filtered out.  Assembled and solved with
    dense linear algebra, fully independent of the stepping code.
    """
    n = int(n_z_dense)
    if n < 64:
        raise ValueError("need n_z_dense >= 64 nodes per half-strip")
    h = 1.0 / (n - 1)
    size = 2 * n + 1
    A = np.zeros((size, size))
    M = np.zeros((size, size))
    i_rho = 2 * n

    for half, off in enumerate((0, n)):  # 0: upper (z>0), 1: lower (z<0)
        # trace row: u_0 + k^2 rho = 0
        A[off, off] = 1.0
        A[off, i_rho] = k * k
        for j in range(1, n - 1):
            r = off + j
            A[r, r - 1] = 1.0 / h**2
            A[r, r] = -2.0 / h**2 - k * k
            A[r, r + 1] = 1.0 / h**2
            M[r, r] = 1.0
        # wall row, one-sided first derivative = 0
        w = off + n - 1
        A[w, w] = 3.0
        A[w, w - 1] = -4.0
        A[w, w - 2] = 1.0

    # jump row: (1 + eps k^4) lam rho = u_z(0-) - u_z(0+)
    # upper half stores u at z = +j h: u_z(0+) = (-3u_0 + 4u_1 - u_2)/(2h)
    # lower half stores u at z = -j h: u_z(0-) = (+3u_0 - 4u_1 + u_2)/(2h)
    A[i_rho, n] = 3.0 / (2 * h)
    A[i_rho, n + 1] = -4.0 / (2 * h)
    A[i_rho, n + 2] = 1.0 / (2 * h)
    A[i_rho, 0] = 3.0 / (2 * h)
    A[i_rho, 1] = -4.0 / (2 * h)
    A[i_rho, 2] = 1.0 / (2 * h)
    M[i_rho, i_rho] = 1.0 + eps * k**4

    vals = scipy.linalg.eig(A, M, right=False)
    vals = vals[np.isfinite(vals)]
    vals = vals[np.argsort(-vals.real)]
    return LinearizedMode(k=int(k), matrix_dim=size, eigenvalues=vals)


def curvature_closed_form(x, delta, k=1):
    """Exact curvature of the graph delta*sin(kx)."""
    x = np.asarray(x, dtype=float)
    c = np.cos(k * x)
    return -delta * k * k * np.sin(k * x) / (1.0 + delta**2 * k**2 * c**2) ** 1.5


_X, _Z, _T = sp.symbols("x z t", real=True)


def _lambdify(expr, *space):
    # a numpy function of (*space, t).  lambdify collapses constant
    # expressions to scalars (e.g. when an amplitude is zero); broadcast
    # back to the shape of the space arguments
    fn = sp.lambdify(space + (_T,), expr, modules="numpy")

    def call(*args):
        out = np.asarray(fn(*args), dtype=float)
        return np.broadcast_to(out, np.broadcast(*args[:-1]).shape)

    return call


@dataclass
class ManufacturedProblem:
    """Band-limited exact solution plus the forcing that makes it exact.

    The bulk forcing is the continuous-time residual of the exact fields
    in the transformed equation, with transform coefficients evaluated
    from the exact interface derivatives; the trace shift and jump
    forcing close the boundary and interface relations the same way.
    Supplies the ``at(t) -> (bulk, trace_shift, jump)`` protocol the
    stepper consumes.
    """

    grids: Grids
    cutoff: Cutoff
    eps: float
    u_amp: float = 0.1
    rho_amp: float = 0.05
    _fns: dict = field(init=False, repr=False)

    def __post_init__(self):
        u = sp.exp(-_T) * sp.cos(sp.pi * _Z) * (1 + self.u_amp * sp.cos(_X))
        rho = self.rho_amp * sp.exp(-_T) * sp.sin(_X)
        rho_x = sp.diff(rho, _X)
        kappa = sp.simplify(sp.diff(rho_x / sp.sqrt(1 + rho_x**2), _X))
        rho_t = sp.diff(rho, _T)
        jump_lhs = rho_t + self.eps * sp.diff(rho_t, _X, 4)
        # u is smooth across z = 0, so the one-sided normal derivatives
        # cancel and the jump forcing is the regularized rho_t alone
        assert sp.simplify(sp.diff(u, _Z).subs(_Z, 0)) == 0
        self._fns = {
            "u": _lambdify(u, _X, _Z),
            "u_t": _lambdify(sp.diff(u, _T), _X, _Z),
            "u_x": _lambdify(sp.diff(u, _X), _X, _Z),
            "u_xx": _lambdify(sp.diff(u, _X, 2), _X, _Z),
            "u_z": _lambdify(sp.diff(u, _Z), _X, _Z),
            "u_zz": _lambdify(sp.diff(u, _Z, 2), _X, _Z),
            "u_xz": _lambdify(sp.diff(sp.diff(u, _Z), _X), _X, _Z),
            "rho": _lambdify(rho, _X),
            "rho_t": _lambdify(rho_t, _X),
            "rho_x": _lambdify(rho_x, _X),
            "rho_xx": _lambdify(sp.diff(rho, _X, 2), _X),
            "kappa": _lambdify(kappa, _X),
            "jump_lhs": _lambdify(jump_lhs, _X),
        }

    def _meshes(self):
        return self.grids.meshes()

    def u_exact(self, t):
        xm, zm = self._meshes()
        return np.broadcast_to(self._fns["u"](xm, zm, t), self.grids.shape).copy()

    def rho_exact(self, t):
        return self._fns["rho"](self.grids.tangential.nodes, t)

    def initial_data(self):
        return self.u_exact(0.0), self.rho_exact(0.0)

    def exact_coefficients(self, t):
        x = self.grids.tangential.nodes
        return coefficients(
            self._fns["rho"](x, t), self._fns["rho_t"](x, t), self.cutoff,
            self.grids, rho_x=self._fns["rho_x"](x, t),
            rho_xx=self._fns["rho_xx"](x, t),
        )

    def at(self, t):
        xm, zm = self._meshes()
        x = self.grids.tangential.nodes
        f = self._fns
        coef = self.exact_coefficients(t)
        bulk = (f["u_t"](xm, zm, t) - f["u_xx"](xm, zm, t)
                - coef.a * f["u_zz"](xm, zm, t)
                + coef.B * f["u_xz"](xm, zm, t)
                + coef.c * f["u_z"](xm, zm, t))
        trace_shift = f["u"](x, 0.0, t) - f["kappa"](x, t)
        jump = f["jump_lhs"](x, t)
        return np.broadcast_to(bulk, self.grids.shape).copy(), trace_shift, jump
