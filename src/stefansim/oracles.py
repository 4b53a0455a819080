"""Independent reference values: linearized spectrum, dispersion roots,
manufactured solutions, closed-form curvature.

Everything here is built by a different route than the production solver
(dense eigensolves, transcendental root finding, closed-form
differentiation) so the two can be compared without shared
discretization machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    from scipy.optimize import brentq  # only summaries and checks need it
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


@dataclass
class ManufacturedProblem:
    """Band-limited exact solution plus the forcing that makes it exact.

    The exact fields are u = e^{-t} cos(pi z) (1 + u_amp cos x) and
    rho = rho_amp e^{-t} sin x; every derivative is a closed form
    (u_t = -u, u_zz = -pi^2 u, rho_t = rho_xx = -rho, d^4/dx^4 sin x =
    sin x).  The bulk forcing is the continuous-time residual of the exact
    fields in the transformed equation, with transform coefficients
    evaluated from the exact interface derivatives; the trace shift and
    jump forcing close the boundary and interface relations the same way.
    Supplies the ``at(t) -> (bulk, trace_shift, jump)`` protocol the
    stepper consumes.
    """

    grids: Grids
    cutoff: Cutoff
    eps: float
    u_amp: float = 0.1
    rho_amp: float = 0.05

    def u_exact(self, t):
        x, z = self.grids.meshes()
        return (1.0 + self.u_amp * np.cos(x)) * np.exp(-t) * np.cos(np.pi * z)

    def rho_exact(self, t):
        return self.rho_amp * np.exp(-t) * np.sin(self.grids.tangential.nodes)

    def initial_data(self):
        return self.u_exact(0.0), self.rho_exact(0.0)

    def exact_coefficients(self, t):
        rho = self.rho_exact(t)
        rho_x = self.rho_amp * np.exp(-t) * np.cos(self.grids.tangential.nodes)
        return coefficients(rho, -rho, self.cutoff, self.grids, rho_x=rho_x, rho_xx=-rho)

    def at(self, t):
        x, z = self.grids.meshes()
        decay = np.exp(-t)
        profile = 1.0 + self.u_amp * np.cos(x)
        u_t = -self.u_exact(t)
        u_xx = -self.u_amp * decay * np.cos(x) * np.cos(np.pi * z)
        u_z = -np.pi * profile * decay * np.sin(np.pi * z)
        u_zz = -np.pi**2 * profile * decay * np.cos(np.pi * z)
        u_xz = self.u_amp * np.pi * decay * np.sin(x) * np.sin(np.pi * z)
        coef = self.exact_coefficients(t)
        bulk = u_t - u_xx - coef.a * u_zz + coef.B * u_xz + coef.c * u_z
        nodes = self.grids.tangential.nodes
        # curvature of rho_amp e^{-t} sin x, scaled by e^{3t} above and below
        growth = np.exp(2.0 * t)
        kappa = (-self.rho_amp * growth * np.sin(nodes)
                 / (growth + self.rho_amp**2 * np.cos(nodes) ** 2) ** 1.5)
        trace_shift = profile[:, 0] * decay - kappa  # u(x, 0, t) - kappa
        # u is smooth across z = 0, so the one-sided normal derivatives
        # cancel and the jump forcing is the regularized rho_t alone,
        # (1 + eps d_x^4) rho_t = (1 + eps) rho_t
        jump = -self.rho_amp * (1.0 + self.eps) * decay * np.sin(nodes)
        return bulk, trace_shift, jump
