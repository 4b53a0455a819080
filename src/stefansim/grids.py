"""Grids and discrete calculus on the periodic strip T^1 x [-1, 1].

The tangential direction is a uniform periodic grid with period fixed to
2*pi (other interface lengths are handled by rescaling the inputs, see the
README).  The normal direction is a uniform grid on [-1, 1] with an odd
number of nodes so that z = 0 (the flattened interface) is a grid line.

Tangential derivatives are pseudo-spectral, and every tangential transform
is a product with a cached real matrix (``RealTransforms``): the forward
matrix takes a field to the real and imaginary parts of its rfft (the
*real layout*), and one inverse matrix per multiplier (ik)^order takes
them back to the derivative.  numpy's FFT is used only to draw
band-limited random fields (``band_limited``).  A derivative is named by
the orders of its factors: (2,) is d_x^2 and (mu, 1) is d_x of d_x^mu.
Its multiplier is (ik) to the total order, with the Nyquist mode zeroed
when any factor is odd, as nested calls would zero it (an odd derivative
has no Nyquist value on an even real grid); this module alone applies
that rule (``_zero_nyquist``).  Normal derivatives are second-order finite differences, taken on each half-strip
(``halves``) so that the stencil at the interface row is one-sided: bulk
fields are allowed a kink across z = 0.  Quadrature is the rectangle rule
tangentially and the trapezoid rule per half-strip normally.
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
        raise NonFiniteFieldError(
            f"{what}: non-finite entry at index {tuple(int(i) for i in bad[0])}")


@dataclass(frozen=True)
class TangentialGrid:
    """Uniform periodic grid on [0, 2*pi)."""

    n_x: int

    def __post_init__(self):
        if self.n_x < 8 or self.n_x % 2 != 0:
            raise ValueError(f"n_x must be even and >= 8, got {self.n_x}")

    @cached_property
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

    @cached_property
    def dz(self):
        return 2.0 / (self.n_z - 1)

    @cached_property
    def nodes(self):
        return np.linspace(-1.0, 1.0, self.n_z)

    @cached_property
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


def _zero_nyquist(factors):
    """Whether the tangential derivative with the orders ``factors`` drops
    the Nyquist mode: an odd derivative has no Nyquist value on an even
    real grid, so a composed one drops it when any factor is odd."""
    return any(order % 2 == 1 for order in factors)


@lru_cache(maxsize=None)
def parseval_weights(tangential, normal, terms):
    """Read-only (n_x // 2 + 1, n_z) weights W, cached per grid pair and
    ``terms``, with which sum W |v_hat|^2 is the bulk quadrature
    (rectangle rule in x, trapezoid in z) of the sum over ``terms`` of
    (d v)^2, v_hat the rfft along x of the real bulk field v.

    ``terms`` is a tuple of derivatives, each named by the orders of its
    factors (see the module docstring); each contributes c_k k^(2 order)
    times the trapezoid z-weights, order the total, with c_k = 2 for the
    modes that stand for a conjugate pair and 1 for k = 0 and the Nyquist
    mode, which is zeroed where ``_zero_nyquist`` says so.
    """
    n = tangential.n_x
    k2 = np.arange(n // 2 + 1, dtype=float) ** 2
    modes = np.zeros_like(k2)
    for factors in terms:
        term = k2 ** sum(factors)
        if _zero_nyquist(factors):
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


@lru_cache(maxsize=None)
def _distinct_terms(terms):
    """The first term of each multiplier (total order, ``_zero_nyquist``)
    among ``terms``, and each term's index among those terms."""
    rows = {}  # multiplier -> its index
    index = tuple(rows.setdefault((sum(f), _zero_nyquist(f)), len(rows)) for f in terms)
    return tuple(terms[index.index(i)] for i in range(len(rows))), index


class RealTransforms:
    """The rfft along axis 0 of real fields (n, m) on an n-point grid, its
    inverse and its inverse tangential derivatives, as real matrices acting
    on the *real layout* of the coefficients: an array (2, n // 2 + 1, ...)
    of the modes' real parts, then their imaginary parts.  An interface
    row's coefficients are the same layout, flat: (2 (n // 2 + 1),).  Each
    transform is one BLAS product; ``real_transforms`` caches one instance
    per n.

    ``forward_matrix`` (2 modes, n) takes a field to its coefficients.  Each
    inverse derivative has its (n, 2 modes) matrix, one per distinct
    multiplier (ik)^order, order the total order of the derivative's
    factors, with the Nyquist mode zeroed where ``_zero_nyquist`` says so:
    ``matrix`` builds it on first use and keeps it.  ``inverse_matrix`` is
    that of order 0, ``derivative_matrix`` (2 n, 2 modes) stacks those of
    d_x and d_x^2, so one product gives both (the bulk fields' u_x and u_xx,
    an interface's slope and second derivative), and ``d_x`` takes any set
    of derivatives, one product per distinct multiplier.

    The inverses follow numpy's ``irfft``, which ignores the imaginary parts
    of the k = 0 and Nyquist modes.  Every angle is taken from k j mod n, so
    no entry loses digits to a large angle, and the sines at 0 and pi are
    exact zeros.
    """

    def __init__(self, n):
        self.n, self.modes = n, n // 2 + 1
        turns = np.outer(np.arange(self.modes), np.arange(n)) % n  # (modes, n)
        cos, sin = np.cos(2.0 * np.pi * turns / n), np.sin(2.0 * np.pi * turns / n)
        sin[turns % (n // 2) == 0] = 0.0
        self._cos, self._sin = cos, sin
        # 0.0 - sin: a +0.0, not a -0.0, where sin is 0
        self.forward_matrix = self._frozen(np.concatenate((cos, 0.0 - sin)))
        self._matrices = {}  # (total order, zero Nyquist) -> its inverse matrix
        # factors -> the matrix of their multiplier: a product finds its
        # matrix without naming the multiplier again
        self._by_factors = {}
        self.inverse_matrix = self.matrix((0,))
        self.derivative_matrix = self._frozen(np.concatenate((self.matrix((1,)),
                                                              self.matrix((2,)))))

    @staticmethod
    def _frozen(matrix):
        matrix = np.ascontiguousarray(matrix)
        matrix.setflags(write=False)
        return matrix

    def matrix(self, factors):
        """The read-only (n, 2 modes) matrix of the derivative named by the
        orders ``factors``: irfft of (ik)^order times the coefficients, the
        Nyquist mode zeroed where ``_zero_nyquist`` says so; one per
        multiplier, built on first use, and looked up by ``factors``."""
        if factors not in self._by_factors:
            key = (sum(factors), _zero_nyquist(factors))
            if key not in self._matrices:
                mult = (1j * np.arange(self.modes)) ** key[0]
                if key[1]:
                    mult[-1] = 0.0
                pairs = np.full(self.modes, 2.0)  # a mode stands for a conjugate pair ...
                pairs[[0, -1]] = 1.0  # ... but k = 0 and the Nyquist mode
                w_re = (pairs * mult.real / self.n)[:, None]
                w_im = (pairs * mult.imag / self.n)[:, None]
                cos, sin = self._cos, self._sin
                self._matrices[key] = self._frozen(np.concatenate(
                    (w_re * cos - w_im * sin, -(w_im * cos + w_re * sin))).T)
            self._by_factors[factors] = self._matrices[key]
        return self._by_factors[factors]

    def forward(self, v):
        """The real layout (2, modes, m) of the rfft along axis 0 of the
        real field v (n, m): one product."""
        return (self.forward_matrix @ v).reshape(2, self.modes, -1)

    def inverse(self, x):
        """The real field (n, m), an array of its own, whose rfft has the
        real layout x (2, modes, m): one product."""
        return self.inverse_matrix @ x.reshape(2 * self.modes, -1)

    def derivatives(self, x, count=2):
        """d_x, and with ``count`` = 2 d_x^2 stacked after it, (count, n,
        m), of the real field whose rfft has the real layout x (2, modes,
        m): one product, into a new array."""
        out = self.derivative_matrix[:count * self.n] @ x.reshape(2 * self.modes, -1)
        return out.reshape(count, self.n, -1)

    def d_x(self, x, terms):
        """The distinct derivatives among ``terms`` (a tuple, each named by
        the orders of its factors; (0,) is v itself) of the real field v
        whose rfft has the real layout x, (2, modes, ...) or a row's flat
        (2 modes,): a new array (distinct, n, ...), row i the i-th distinct
        multiplier's (``_distinct_terms``), from one product per row
        (``d_x_into``).  No finiteness check."""
        distinct, _ = _distinct_terms(terms)
        return self.d_x_into(np.empty((len(distinct), self.n) + x.shape[2:]), x, distinct)

    def d_x_into(self, out, x, distinct):
        """The derivatives ``distinct`` of x, distinct multipliers each (the
        first of ``_distinct_terms``), written into ``out``, a C-contiguous
        array (len(distinct), n, ...) of their shape (a slice of a larger
        stack, say): ``d_x``'s rows, one product per row; returns out."""
        coef = x if x.ndim == 1 else x.reshape(2 * self.modes, -1)  # a row, or (2 modes, m)
        # out, or its view (distinct, n, m) when x has other than one axis after the modes
        rows = out if x.ndim in (1, 3) else out.reshape(len(out), self.n, coef.shape[1])
        for row, factors in zip(rows, distinct):
            np.matmul(self.matrix(factors), coef, out=row)
        return out


@lru_cache(maxsize=None)
def real_transforms(n):
    """The ``RealTransforms`` of an n-point grid (cached)."""
    return RealTransforms(n)


def interface_transforms(rho):
    """(coefficients, slope, second derivative) of the n-point interface
    rho: its rfft in a row's flat real layout (``RealTransforms``) and the
    ``derivative_matrix`` product taken of it, two products in all.  The
    product transforms rho - rho[0], and n rho[0] is added to the mean
    mode: so a constant interface transforms to exact zeros but for its
    mean, as numpy's FFT transforms it, and its derivatives are exact
    zeros.  No finiteness check."""
    n = rho.shape[0]
    t = real_transforms(n)
    coef = t.forward_matrix @ (rho - rho[0])
    coef[0] += n * rho[0]
    rho_x, rho_xx = (t.derivative_matrix @ coef).reshape(2, n)
    return coef, rho_x, rho_xx


def power_spectrum(x):
    """|v_hat|^2 (modes, ...) of the coefficients x in the real layout
    (2, modes, ...), which ``parseval_sum`` reads."""
    return x[0] ** 2 + x[1] ** 2


def parseval_sum(power, terms, grids):
    """Bulk quadrature of the sum over the derivatives ``terms`` (each
    named by the orders of its factors) of (d v)^2, summed by Parseval
    (``parseval_weights``) on the power spectrum ``power`` |v_hat|^2 of v,
    v_hat its rfft: no inverse transform."""
    return float(np.vdot(parseval_weights(grids.tangential, grids.normal, terms), power))


def d_tangential(values, order=1):
    """Spectral tangential derivative along axis 0: two products with the
    cached matrices of ``RealTransforms``, of values - values[0], so that a
    field constant in x has exact zeros for derivatives.

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
    t = real_transforms(v.shape[0])
    return t.matrix((order,)) @ (t.forward_matrix @ (v - v[0]))


# the taps of the second-order one-sided stencils along the last axis,
# from the end node inwards: 3 points for a first derivative (over 2h), 4
# for a second (over h^2)
FIRST_WALL_TAPS = (-3.0, 4.0, -1.0)
SECOND_WALL_TAPS = (2.0, -5.0, 4.0, -1.0)


def _tap_sum(values, i, step, taps):
    """sum_j taps[j] values[..., i + j step], summed in tap order."""
    out = taps[0] * values[..., i]
    for j, tap in enumerate(taps[1:], 1):
        out = out + tap * values[..., i + j * step]
    return out


# a first derivative's stencil changes sign with its direction
_FIRST_TAPS = {True: FIRST_WALL_TAPS, False: tuple(-tap for tap in FIRST_WALL_TAPS)}


def _one_sided_first(values, i, h, forward):
    return _tap_sum(values, i, 1 if forward else -1, _FIRST_TAPS[forward]) / (2.0 * h)


def first_walls(values, h):
    """First derivative along the last axis with spacing h: centered inside,
    one-sided 3-point stencils at both ends (no finiteness check)."""
    out = np.empty_like(values)
    out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * h)
    out[..., 0] = _one_sided_first(values, 0, h, forward=True)
    out[..., -1] = _one_sided_first(values, values.shape[-1] - 1, h, forward=False)
    return out


def _one_sided_second(values, i, h, forward):
    return _tap_sum(values, i, 1 if forward else -1, SECOND_WALL_TAPS) / h**2


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
    z <= 0 first, then z >= 0.  Both halves hold the z = 0 row, so
    ``first_walls`` and ``second_walls`` taken on them use, at the
    interface, the one-sided stencils on z <= 0 and on z >= 0 data."""
    mid = grid.i_mid
    return np.stack((values[..., : mid + 1], values[..., mid:]), axis=-2)


def interface_sum(values, grid):
    """Rectangle rule on the torus (spectrally exact for resolved fields);
    no finiteness check."""
    return float(values.sum() * grid.spacing)


@lru_cache(maxsize=None)
def quadrature_weights(shape, grids):
    """Read-only weights W of the bulk quadrature of an integrand of
    ``shape``, cached per shape and grid pair: the trapezoid rule (spacing
    dz) along the last axis and the rectangle rule in x, so that
    sum W * values is ``bulk_sum`` of an integrand, (n_x, n_z) or in the
    ``halves`` layout."""
    w = np.full(shape[-1], grids.normal.dz * grids.tangential.spacing)
    w[[0, -1]] *= 0.5
    weights = np.broadcast_to(w, shape).copy()
    weights.setflags(write=False)
    return weights


def bulk_sum(values, grids):
    """Rectangle (x) times trapezoid (z) rule: one weighted sum with the
    cached ``quadrature_weights``.  An integrand in the ``halves`` layout
    (..., 2, i_mid + 1) is summed by the trapezoid rule per half-strip, so
    it may take two values at z = 0.  No finiteness check."""
    return float(np.vdot(quadrature_weights(values.shape, grids), values))


def l2_interface(values, grid):
    """L2 norm on the torus by ``interface_sum``; no finiteness check."""
    return float(np.sqrt(interface_sum(np.asarray(values) ** 2, grid)))


def tail_fraction_hat(x, n):
    """Fraction of (mean-free) spectral energy carried by the top third of
    modes of the n-point interface whose rfft has the flat real layout x
    (``RealTransforms``): four dot products, two per block."""
    re, im = x.reshape(2, -1)
    total = re[1:] @ re[1:] + im[1:] @ im[1:]  # the mean carries no derivative information
    if total == 0.0:
        return 0.0
    k = n // 3
    return float((re[k:] @ re[k:] + im[k:] @ im[k:]) / total)


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
