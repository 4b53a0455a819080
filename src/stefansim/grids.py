"""Grids and discrete calculus on the periodic strip T^1 x [-1, 1].

The tangential direction is a uniform periodic grid with period fixed to
2*pi (other interface lengths are handled by rescaling the inputs, see the
README).  The normal direction is a uniform grid on [-1, 1] with an odd
number of nodes so that z = 0 (the flattened interface) is a grid line.

Tangential derivatives are pseudo-spectral: FFT, multiply by (ik)^order,
inverse FFT, with the Nyquist mode zeroed for odd orders.  Normal
derivatives are second-order finite differences; at the interface row the
stencil is one-sided ("above" uses z >= 0 data only, "below" uses z <= 0),
because bulk fields are allowed a kink across z = 0.  Quadrature is the
rectangle rule tangentially and the trapezoid rule per half-strip normally.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NonFiniteFieldError

PERIOD = 2.0 * np.pi


def _require_finite(values, what):
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(np.asarray(values)))
        raise NonFiniteFieldError(f"{what}: non-finite entry at index {tuple(bad[0])}")


@dataclass(frozen=True)
class TangentialGrid:
    """Uniform periodic grid on [0, 2*pi)."""

    n_x: int

    def __post_init__(self):
        if self.n_x < 8 or self.n_x % 2 != 0:
            raise ValueError(f"n_x must be even and >= 8, got {self.n_x}")

    @property
    def spacing(self):
        return PERIOD / self.n_x

    @cached_property
    def nodes(self):
        return PERIOD * np.arange(self.n_x) / self.n_x


@dataclass(frozen=True)
class NormalGrid:
    """Uniform grid on [-1, 1] with z = 0 as the middle node."""

    n_z: int

    def __post_init__(self):
        # the one-sided 4-point stencils need four nodes per half-strip
        if self.n_z < 9 or self.n_z % 2 == 0:
            raise ValueError(f"n_z must be odd and >= 9, got {self.n_z}")

    @property
    def dz(self):
        return 2.0 / (self.n_z - 1)

    @cached_property
    def nodes(self):
        return np.linspace(-1.0, 1.0, self.n_z)

    @property
    def i_mid(self):
        """Index of the z = 0 node."""
        return (self.n_z - 1) // 2


@dataclass(frozen=True)
class Grids:
    """Bundle of the two grids; bulk arrays are indexed (x node, z node)."""

    tangential: TangentialGrid
    normal: NormalGrid

    @property
    def shape(self):
        return (self.tangential.n_x, self.normal.n_z)

    def meshes(self):
        x = self.tangential.nodes[:, None]
        z = self.normal.nodes[None, :]
        return x, z


@lru_cache(maxsize=None)
def tangential_multiplier(n, order, zero_nyquist):
    """(ik)^order on the rfft modes of an n-point grid (read-only, cached).

    The Nyquist mode is zeroed when ``zero_nyquist``: for an odd order, and
    for a composed derivative any of whose factors has odd order.
    """
    mult = (1j * np.arange(n // 2 + 1)) ** order
    if zero_nyquist:
        mult[-1] = 0.0
    mult.setflags(write=False)
    return mult


@lru_cache(maxsize=None)
def parseval_weights(tangential, normal, terms):
    """Read-only (n_x // 2 + 1, n_z) weights W, cached per grid pair and
    ``terms``, with which sum W |v_hat|^2 is the bulk quadrature
    (rectangle rule in x, trapezoid in z) of the sum over ``terms`` of
    (d_x^order v)^2, v_hat the rfft along x of the real bulk field v.

    ``terms`` is a tuple of (order, zero_nyquist) pairs; each contributes
    c_k k^(2 order) times the trapezoid z-weights, with c_k = 2 for the
    modes that stand for a conjugate pair and 1 for k = 0 and the Nyquist
    mode, which is zeroed where ``zero_nyquist`` says so, as
    ``tangential_multiplier`` zeroes it.
    """
    n = tangential.n_x
    k2 = np.arange(n // 2 + 1, dtype=float) ** 2
    modes = np.zeros_like(k2)
    for order, zero_nyquist in terms:
        term = k2**order
        if zero_nyquist:
            term[-1] = 0.0
        modes += term
    pairs = np.full_like(k2, 2.0)
    pairs[0] = pairs[-1] = 1.0
    z_weights = np.full(normal.n_z, normal.dz)
    z_weights[[0, -1]] *= 0.5
    # h sum_x v^2 = (h / n) sum_k c_k |v_hat_k|^2 on an n-point grid
    weights = (pairs * modes * (tangential.spacing / n))[:, None] * z_weights[None, :]
    weights.setflags(write=False)
    return weights


def d_tangential_hat(hat, n, order, zero_nyquist=None):
    """d_x^order of the n-point field whose rfft along axis 0 is ``hat``.

    One multiplication by the cached (ik)^order and one inverse transform;
    no finiteness check.  The Nyquist mode is zeroed for odd orders unless
    ``zero_nyquist`` says otherwise (see ``tangential_multiplier``).
    """
    if zero_nyquist is None:
        zero_nyquist = order % 2 == 1
    mult = tangential_multiplier(n, order, zero_nyquist)
    return np.fft.irfft(hat * mult.reshape((-1,) + (1,) * (hat.ndim - 1)), n=n, axis=0)


def d_tangential(values, order=1):
    """Spectral tangential derivative along axis 0.

    Parameters
    ----------
    values : ndarray, shape (n_x,) or (n_x, n_z)
    order : int >= 1
        Derivative order; the Nyquist mode is zeroed for odd orders (it has
        no well-defined odd derivative on an even real grid).
    """
    v = np.asarray(values, dtype=float)
    _require_finite(v, "d_tangential input")
    if order < 1:
        raise ValueError("order must be a positive integer")
    return d_tangential_hat(np.fft.rfft(v, axis=0), v.shape[0], order)


def _one_sided_first(values, i, h, forward):
    # second-order 3-point stencil
    if forward:
        return (-3.0 * values[..., i] + 4.0 * values[..., i + 1] - values[..., i + 2]) / (2.0 * h)
    return (3.0 * values[..., i] - 4.0 * values[..., i - 1] + values[..., i - 2]) / (2.0 * h)


def first_walls(values, h):
    """First derivative along the last axis with spacing h: centered inside,
    one-sided 3-point stencils at both ends (no finiteness check)."""
    out = np.empty_like(values)
    out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * h)
    out[..., 0] = _one_sided_first(values, 0, h, forward=True)
    out[..., -1] = _one_sided_first(values, values.shape[-1] - 1, h, forward=False)
    return out


def _one_sided_second(values, i, h, forward):
    # second-order 4-point stencil
    s = 1 if forward else -1
    return (2.0 * values[..., i] - 5.0 * values[..., i + s] + 4.0 * values[..., i + 2 * s]
            - values[..., i + 3 * s]) / h**2


def second_walls(values, h):
    """Second derivative along the last axis with spacing h: 3-point inside,
    one-sided 4-point stencils at both ends (no finiteness check)."""
    out = np.empty_like(values)
    out[..., 1:-1] = (values[..., 2:] - 2.0 * values[..., 1:-1] + values[..., :-2]) / h**2
    out[..., 0] = _one_sided_second(values, 0, h, forward=True)
    out[..., -1] = _one_sided_second(values, values.shape[-1] - 1, h, forward=False)
    return out


def halves(values, grid):
    """Split bulk values (..., n_z) into the two half-strips (..., 2, i_mid + 1):
    z <= 0 first, then z >= 0.  Both halves hold the z = 0 row, so a
    derivative taken on them is one-sided at the interface, as in
    ``d_normal(side="below")`` and ``side="above"`` respectively."""
    mid = grid.i_mid
    return np.stack((values[..., : mid + 1], values[..., mid:]), axis=-2)


def d_normal(values, grid, side="above"):
    """First normal derivative along the last axis, second order.

    ``side`` selects the stencil at the interface row z = 0: "above" uses
    z >= 0 data, "below" uses z <= 0, "centered" uses the ordinary centered
    stencil (first order across a kink, second order for smooth fields).
    Walls always use one-sided 3-point stencils.
    """
    v = np.asarray(values, dtype=float)
    _require_finite(v, "d_normal input")
    n_z, h, mid = grid.n_z, grid.dz, grid.i_mid
    if v.shape[-1] != n_z:
        raise ValueError(f"last axis {v.shape[-1]} != n_z {n_z}")
    out = first_walls(v, h)
    if side == "above":
        out[..., mid] = _one_sided_first(v, mid, h, forward=True)
    elif side == "below":
        out[..., mid] = _one_sided_first(v, mid, h, forward=False)
    elif side != "centered":
        raise ValueError(f"side must be above/below/centered, got {side!r}")
    return out


def d_normal2(values, grid, side="above"):
    """Second normal derivative along the last axis.

    Interior rows use the standard 3-point stencil.  The interface row and
    the walls use one-sided 4-point stencils (second order).
    """
    v = np.asarray(values, dtype=float)
    _require_finite(v, "d_normal2 input")
    h, mid = grid.dz, grid.i_mid
    out = second_walls(v, h)
    if side == "above":
        out[..., mid] = _one_sided_second(v, mid, h, forward=True)
    elif side == "below":
        out[..., mid] = _one_sided_second(v, mid, h, forward=False)
    elif side != "centered":
        raise ValueError(f"side must be above/below/centered, got {side!r}")
    return out


def interface_sum(values, grid):
    """Rectangle rule on the torus (spectrally exact for resolved fields);
    no finiteness check."""
    return float(values.sum() * grid.spacing)


def bulk_sum(values, grids):
    """Rectangle (x) times trapezoid (z) rule for single-valued integrands;
    no finiteness check."""
    per_x = np.trapezoid(values, dx=grids.normal.dz, axis=-1)
    return float(per_x.sum() * grids.tangential.spacing)


def integrate_interface(values, grid):
    v = np.asarray(values, dtype=float)
    _require_finite(v, "integrate_interface input")
    return interface_sum(v, grid)


def integrate_bulk(values, grids):
    v = np.asarray(values, dtype=float)
    _require_finite(v, "integrate_bulk input")
    return bulk_sum(v, grids)


def integrate_bulk_sided(above, below, grids):
    """Two-phase bulk quadrature for integrands double-valued at z = 0.

    ``above`` supplies the integrand on the upper half-strip (rows z >= 0),
    ``below`` on the lower half (rows z <= 0); both are full (n_x, n_z)
    arrays and only their z = 0 rows may differ.
    """
    a = np.asarray(above, dtype=float)
    b = np.asarray(below, dtype=float)
    _require_finite(a, "integrate_bulk_sided above")
    _require_finite(b, "integrate_bulk_sided below")
    mid = grids.normal.i_mid
    return integrate_halves(np.stack((b[..., : mid + 1], a[..., mid:]), axis=-2), grids)


def integrate_halves(values, grids):
    """Two-phase bulk quadrature of an integrand in the ``halves`` layout
    (..., 2, i_mid + 1): trapezoid per half-strip, rectangle rule in x.
    No finiteness check."""
    per_half = np.trapezoid(values, dx=grids.normal.dz, axis=-1)
    return float((per_half[..., 1] + per_half[..., 0]).sum() * grids.tangential.spacing)


def l2_interface(values, grid):
    """L2 norm on the torus by ``interface_sum``; no finiteness check."""
    return float(np.sqrt(interface_sum(np.asarray(values) ** 2, grid)))


def tail_fraction_hat(hat, n):
    """Fraction of (mean-free) spectral energy carried by the top third of
    modes of the n-point field whose rfft is ``hat``."""
    power = np.abs(hat) ** 2
    power[0] = 0.0  # the mean carries no derivative information
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(power[n // 3:].sum() / total)


def band_limited(rng, grid, amplitude):
    """Random smooth mean-free interface field with the top third of the
    spectrum empty.

    Coefficients fall off like 1/k^2 so the fields look like interfaces, not
    noise; the result is rescaled to the requested sup-norm amplitude.
    """
    n = grid.n_x
    k_max = n // 3 - 1  # highest mode that keeps the top third empty
    coeffs = np.zeros(n // 2 + 1, dtype=complex)
    ks = np.arange(1, k_max + 1)
    coeffs[1 : k_max + 1] = (rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)) / ks**2
    v = np.fft.irfft(coeffs, n=n)
    peak = np.abs(v).max()
    if peak > 0:
        v = v * (amplitude / peak)
    return v
