"""Interface-flattening change of variables and its PDE coefficients.

The moving interface z = rho(x, t) is pulled back to the fixed line z = 0 by
the map  (x, z) -> (x, z + phi(z) rho(x)),  where phi is an even C^2 cutoff
that equals 1 near z = 0 and 0 near the walls z = +-1.  Under this map the
heat operator acquires variable coefficients

    u_t - Lap' u - a u_zz + B . grad' u_z + c u_z = 0,

with (n = 2 throughout; ' marks tangential quantities)

    a = (1 + (phi rho_x)^2) / (1 + phi' rho)^2,
    B = 2 phi rho_x / (1 + phi' rho),
    c = d + e,
    d = phi rho_xx/(1+phi' rho) - (phi^2)' rho_x^2/(1+phi' rho)^2
        + phi'' rho (1 + (phi rho_x)^2)/(1+phi' rho)^3,
    e = - phi rho_t / (1 + phi' rho).

The map is invertible iff 1 + phi'(z) rho(x) > 0 everywhere; violations
raise DegenerateTransformError naming the first offending node.

The mean-curvature operator of the graph z = rho(x) is computed in
divergence form kappa = (rho_x / sqrt(1+rho_x^2))_x with spectral outer
derivative.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import STAMP, DegenerateTransformError, ResolutionWarning
from .grids import (
    _one_sided_first,
    _require_finite,
    interface_transforms,
    real_transforms,
    tail_fraction_hat,
)

TAIL_TOLERANCE = 1e-8  # spectral-tail energy fraction at which an interface is under-resolved


@dataclass(frozen=True)
class Cutoff:
    """Even quintic-smoothstep cutoff profile.

    phi = 1 for |z| <= alpha, phi = 0 for |z| >= 1 - alpha, and in between
    phi(z) = 1 - S((|z|-alpha)/(1-2 alpha)) with S the quintic smoothstep,
    so phi is C^2 with exactly flat plateaus.  alpha must lie in (0, 1/3):
    on the inner plateau phi' = phi'' = 0, so the jacobian is exactly 1
    and a = <rho>^2 on the interface row, while the outer plateau
    (phi = 0) makes the wall rows coefficient-free (a = 1, B = c = 0).
    """

    alpha: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 / 3.0):
            raise ValueError(f"alpha must be in (0, 1/3), got {self.alpha}")

    @property
    def max_slope(self):
        # max |S'| = 15/8 over the ramp of width 1 - 2 alpha
        return 1.875 / (1.0 - 2.0 * self.alpha)

    def profiles(self, z):
        """Return (phi, phi', phi'') at the nodes z."""
        z = np.asarray(z, dtype=float)
        az = np.abs(z)
        s = np.clip((az - self.alpha) / (1.0 - 2.0 * self.alpha), 0.0, 1.0)
        phi = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
        ds = 30.0 * s**2 * (1.0 - s) ** 2
        d2s = 60.0 * s * (1.0 - 3.0 * s + 2.0 * s**2)
        ramp = (az > self.alpha) & (az < 1.0 - self.alpha)
        dphi = np.where(ramp, -ds * np.sign(z) / (1.0 - 2.0 * self.alpha), 0.0)
        d2phi = np.where(ramp, -d2s / (1.0 - 2.0 * self.alpha) ** 2, 0.0)
        return phi, dphi, d2phi


@lru_cache(maxsize=None)
def grid_profiles(cutoff, normal):
    """``cutoff.profiles`` at the nodes of ``normal`` as read-only (1, n_z)
    rows, cached per (Cutoff, NormalGrid)."""
    rows = tuple(p[None, :] for p in cutoff.profiles(normal.nodes))
    for p in rows:
        p.setflags(write=False)
    return rows


@dataclass(frozen=True)
class TransformCoefficients:
    """Variable coefficients of the flattened heat operator at one time level.

    All bulk arrays have shape (n_x, n_z); ``bracket`` is the interface
    area element <rho> = sqrt(1 + rho_x^2), shape (n_x,).
    """

    a: np.ndarray
    B: np.ndarray
    c: np.ndarray
    bracket: np.ndarray


def coefficients(rho, rho_t, cutoff, grids, *, rho_x, rho_xx):
    """Assemble the transform coefficients for interface state (rho, rho_t).

    rho, rho_t : (n_x,) arrays; rho_x, rho_xx : the tangential derivatives
    of rho, which every caller already holds (spectral ones, or exact ones
    in manufactured-solution tooling).  No finiteness check.
    Raises DegenerateTransformError when 1 + phi' rho <= 0 somewhere.

    Every term is a product with one reciprocal Jacobian j = 1/(1 + phi'
    rho), taken once by ``_metric`` with a:
    B = 2 phi rho_x j and, since (1 + (phi rho_x)^2) j^2 = a,
    c = j (phi (rho_xx - rho_t) - (phi^2)' rho_x^2 j + phi'' rho a).
    """
    rho = np.asarray(rho, dtype=float)
    rx = np.asarray(rho_x, dtype=float)
    phi, dphi, d2phi = grid_profiles(cutoff, grids.normal)
    inv, phi_rx, a = _metric(rho[:, None], rx[:, None], phi, dphi)
    B = 2.0 * phi_rx
    B *= inv
    c = (2.0 * phi * dphi) * (rx**2)[:, None]
    c *= inv
    rxx_t = np.subtract(rho_xx, rho_t, dtype=float)
    np.subtract(rxx_t[:, None] * phi, c, out=c)
    c += (d2phi * rho[:, None]) * a
    c *= inv
    return TransformCoefficients(a=a, B=B, c=c, bracket=np.sqrt(1.0 + rx**2))


def _metric(r, rxc, phi, dphi):
    """(1 / jacobian, phi rho_x, a) from column-shaped rho and rho_x, with
    the jacobian 1 + phi' rho and a = (1 + (phi rho_x)^2) / jacobian^2;
    raises DegenerateTransformError naming the first node where the
    jacobian is <= 0."""
    jac = 1.0 + dphi * r
    if np.minimum.reduce(jac, axis=None) <= 0.0:  # the least jacobian: a ufunc, no wrapper
        i, j = np.argwhere(jac <= 0.0)[0]
        raise DegenerateTransformError(
            f"flattening map degenerate: 1 + phi'(z) rho(x) = {jac[i, j]:.3e} <= 0 "
            f"at node (x index {i}, z index {j})",
            node=(int(i), int(j)),
        )
    inv = np.reciprocal(jac, out=jac)
    phi_rx = phi * rxc
    a = phi_rx * phi_rx
    a += 1.0
    a *= inv
    a *= inv
    return inv, phi_rx, a


def norm_weights(rho, rho_x, cutoff, grids):
    """The fields ``a`` and ``bracket`` of ``coefficients(rho, ., cutoff,
    grids, rho_x=rho_x, rho_xx=.)``, bitwise, without assembling B and c.

    Neither depends on rho_t or rho_xx.  Raises DegenerateTransformError
    as ``coefficients`` does.
    """
    phi, dphi, _ = grid_profiles(cutoff, grids.normal)
    _, _, a = _metric(rho[:, None], rho_x[:, None], phi, dphi)
    return a, np.sqrt(1.0 + rho_x**2)


def curvature(rho):
    """Mean curvature of the graph z = rho(x), divergence form, spectral.

    kappa = d/dx ( rho_x / sqrt(1 + rho_x^2) ).  rho comes from outside
    the program, so it is checked for finiteness, and for resolution by
    ``warn_under_resolved``, whose warning points at the caller.
    """
    rho = np.asarray(rho, dtype=float)
    _require_finite(rho, "curvature input")
    coef, rho_x, _ = interface_transforms(rho)
    warn_under_resolved(tail_fraction_hat(coef, rho.size))
    return curvature_hat(coef, rho_x)


def curvature_hat(rho_hat, rho_x):
    """``curvature`` of the interface whose rfft has the flat real layout
    ``rho_hat`` (``grids.RealTransforms``) and whose slope ``rho_x`` the
    caller already took from it: the flux's derivative is two products,
    its forward product and the d_x rows of ``derivative_matrix``.  No
    finiteness or resolution check: ``make_level`` records each level's
    ``tail_fraction``, and ``run`` judges it."""
    n = rho_x.shape[0]
    t = real_transforms(n)
    return t.derivative_matrix[:n] @ (t.forward_matrix @ (rho_x / np.sqrt(1.0 + rho_x**2)))


def warn_under_resolved(tail, at=None):
    """Whether ``tail``, an interface's ``grids.tail_fraction_hat``, is at
    least TAIL_TOLERANCE.  If so, issue a ResolutionWarning ``interface
    under-resolved: tail fraction ...``, stamped ``step n (t=...): ``
    (``errors.STAMP``) when ``at`` is (n, t), pointing at the caller's
    caller.  The message is formatted only then."""
    if tail >= TAIL_TOLERANCE:
        text = f"interface under-resolved: tail fraction {tail:.2e} >= {TAIL_TOLERANCE:.0e}"
        warnings.warn(STAMP.format(*at) + text if at else text, ResolutionWarning, stacklevel=3)
    return tail >= TAIL_TOLERANCE


def jump_normal_derivative(u_values, grids):
    """Jump bracket [u_z] across z = 0: (one-sided from below) - (from above).

    Only the interface row is differentiated, by the second-order
    one-sided 3-point stencils on z <= 0 and on z >= 0 data: bitwise the
    interface rows of ``first_walls`` on ``halves``.
    """
    v = np.asarray(u_values, dtype=float)
    mid, h = grids.normal.i_mid, grids.normal.dz
    below = _one_sided_first(v, mid, h, forward=False)
    above = _one_sided_first(v, mid, h, forward=True)
    return below - above
