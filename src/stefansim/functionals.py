"""Energy and dissipation functionals, weighted norms, and run diagnostics.

Everything here evaluates *states* (bulk temperature u, interface height
rho, and their accepted-step history); nothing here advances time.  The
functionals are instantiated at psi = rho (the weights <psi>, a_psi are
built from the newest interface of the history) and summed over the mixed
derivative family  { d_x^mu d_t^s : mu + 2s <= 2 k_diag }.

Each diagnostic takes level records and the run's ``cfg``, and reads
the grids, the cutoff, epsilon and k_diag from it.

Time derivatives are backward difference quotients over the history
buffer; the s-th quotient needs s+1 uniformly spaced entries.  Terms whose
quotients are not yet available are *skipped and flagged*, never silently
zeroed.  The entries are ``stepper.Level`` records, built once per time
level (``stepper.make_level``): each carries the rffts of its u and rho,
whose differences are the quotients' rffts, the slope of its interface
and its conserved quantity Q, so the diagnostics transform no entry
again.

The unweighted bulk integrals (int w^2 + w_x^2 in E, int w_t^2 + w_x^2 +
w_xx^2 in D, w = d_x^mu u_s) are summed on the Fourier modes of each
field by Parseval (``grids.parseval_weights``).  The a-weighted
normal-derivative terms and the interface terms have weights that vary
in x and are summed in real space: each normal-derivative integral as a
stencil sum on the real rows d_x^mu u_s (``_normal_stencils``, the
one-sided stencils of ``grids.first_walls`` and ``grids.second_walls``
on ``grids.halves``), all rows of one quotient in one weighted reduction
per stencil order (``_stencil_sums``), and the interface integrals of
one quotient of rho in one (``_interface_sums``).

The interface form

    I_psi(W, W) = int  |W|^2 <psi>^-1 - sum_k (W_k . grad psi)^2 <psi>^-3

(W a Hessian field; integrated reading) is strictly positive for nonzero
W: the integrand is bounded below by |W|^2 <psi>^-3 pointwise, with
equality in one tangential dimension.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .grids import (
    FIRST_WALL_TAPS,
    PERIOD,
    SECOND_WALL_TAPS,
    _distinct_terms,
    bulk_sum,
    d_tangential,
    d_tangential_hats,
    interface_sum,
    parseval_sum,
    power_spectrum,
)
from .transform import grid_profiles, norm_weights


def uniform_step(times, what):
    """The common spacing of ``times`` (None for a single entry); raises
    ValueError naming ``what`` unless every spacing s has
    |s - s0| <= 1e-15 + 1e-9 |s0|, s0 the first."""
    times = [float(t) for t in times]
    if len(times) < 2:
        return None
    first = times[1] - times[0]
    bound = 1e-15 + 1e-9 * abs(first)
    if not all(abs(b - a - first) <= bound for a, b in zip(times, times[1:])):
        raise ValueError(f"{what} must be uniformly spaced in time")
    return first


def _quotients(values, count, dt):
    """The backward time quotients s = 0 .. count - 1 at the newest time
    of ``values``, one array per level, oldest first, None where the
    history is too short: the window is stacked once and differenced once
    per order (the s-th quotient is ``np.diff`` of order s of the newest
    s + 1 arrays, over dt^s).  The transform of a quotient is the same
    quotient of the levels' transforms."""
    values = values[-count:]
    out, diffs = [values[-1]], np.stack(values)
    for s in range(1, count):
        if s >= len(values):
            out.append(None)
            continue
        diffs = diffs[1:] - diffs[:-1]
        out.append(diffs[-1] / dt**s)
    return out


def _dx_rows(hat, n, terms):
    """(rows, index): the distinct derivatives among ``terms`` (each named
    by the orders of its factors; (0,) is v itself) of the n-point field v
    whose rfft along axis 0 is ``hat``, stacked, from one batched inverse
    transform (``d_tangential_hats``, which alone decides the Nyquist
    mode), and each term's row.  No finiteness check."""
    distinct, index = _distinct_terms(tuple(terms))
    return d_tangential_hats(hat, n, distinct), range(len(terms)) if index is None else index


# the columns of ``_interface_weights``
_L, _PLAIN, _L3, _I_PSI = range(4)


def _interface_weights(psi_x, L, h):
    """(n_x, 4) columns h L, h, h L^3 and h (L - psi_x^2 L^3), h the grid
    spacing and L = 1/<psi>: summed against (d_x^j v)^2, the interface
    integrals of ``_interface_sums``.  The last column gives I_psi of a
    Hessian (``i_psi``) and the third its lower bound."""
    L3 = L**3
    return np.stack((L, np.ones_like(L), L3, L - psi_x**2 * L3), axis=1) * h


def _interface_sums(hat, n, terms, weights):
    """{term: the sums of (d v)^2 against each column of ``weights``
    (``_interface_weights``)} for the derivatives ``terms`` of the n-point
    interface field v whose rfft is ``hat``, from one batched inverse
    transform and one weighted reduction (``_dx_rows``)."""
    rows, index = _dx_rows(hat, n, terms)
    sums = ((rows * rows) @ weights).tolist()
    return {term: sums[i] for term, i in zip(terms, index)}


def _hessian_sums(omega, psi):
    """The sums of (d_x^2 omega)^2 against each column of psi's
    ``_interface_weights``, the weights of every report's interface terms."""
    px = d_tangential(psi, 1)
    oxx = d_tangential(omega, 2)
    return (oxx * oxx) @ _interface_weights(px, 1.0 / np.sqrt(1.0 + px**2), PERIOD / oxx.size)


def i_psi(omega, psi):
    """Weighted interface form I_psi evaluated on the Hessian of omega."""
    return float(_hessian_sums(omega, psi)[_I_PSI])


def i_psi_lower_bound(omega, psi):
    """The pointwise lower bound int |Hess omega|^2 <psi>^-3 (equality in 1-D)."""
    return float(_hessian_sums(omega, psi)[_L3])


@dataclass(frozen=True)
class Functionals:
    """Every per-step functional of one history window, a partial sum
    each, and the (mu, s) terms that lacked history: ``missing_E`` those of
    the E sums, ``missing_D`` of the D sums (``EnergyReport``'s fields)."""

    E: float
    D: float
    E_eps: float
    D_eps: float
    sobolev_E: float
    sobolev_D: float
    missing_E: tuple
    missing_D: tuple
    i_psi_min_gap: float


def evaluate_functionals(levels, cfg):
    """E, D, E_eps, D_eps and their unweighted Sobolev counterparts from
    one shared derivative pass, plus the least I_psi - lower bound gap.

    ``levels`` are ``stepper.Level`` records, oldest first, uniformly
    spaced in t (ValueError otherwise, or when there are none); the run's
    ``cfg`` gives the grids, the cutoff, epsilon and the diagnostic order
    k_diag.  The weights (a_psi, <psi>) are frozen at the newest
    interface, whose slope psi_x its level holds.

    No forward transform: the rfft along x of each time quotient u_s and
    rho_s is the same quotient of the levels' rffts.  The unweighted bulk
    sums of E and D, int w^2 + w_x^2 and int w_t^2 + w_x^2 + w_xx^2 with
    w = d_x^mu u_s, are summed on those transforms by Parseval
    (``parseval_weights``), one sum per quotient and family.  The other
    terms have weights that vary in x and are summed in real space, on
    stacked real rows keyed by factor tuple ((mu,) is d_x^mu, (mu, j) is
    d_x^j of d_x^mu, and ``grids`` decides the Nyquist mode from the tuple,
    as nested ``d_tangential`` calls would).  A quotient's rows come from
    one batched inverse transform of its rfft, and u_0's row (0,) is the
    newest level's u itself.  Every a- and a^2-weighted normal-derivative
    integral, int a (d_z w)^2, 2 int a (d_z w_x)^2 and int (a d_z^2 w)^2
    with their unweighted twins, is a stencil sum on those rows
    (``_stencil_sums``: ``_normal_stencils``' one-sided stencils at the
    walls and on both sides of the interface, as ``first_walls`` and
    ``second_walls`` on ``halves``), one weighted reduction per quotient
    and stencil order.  The interface integrals are one weighted
    reduction per rho quotient (``_interface_sums``).
    E_eps = E + eps X and D_eps = D + eps Y share their sums with E and
    D, and the Sobolev sums are the same sums without the weights.

    The eps addition to D is 2 eps int |d_x^mu Delta grad rho_t|^2 <psi>^-1
    per (mu, s) (the time-differentiated form; see the energy identity,
    whose time derivative this term balances).

    No finiteness checks: ``run`` checks each accepted state once.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("history must be non-empty")
    dt = uniform_step([lv.t for lv in levels], "history")
    g, eps, k = cfg.grids(), cfg.epsilon, cfg.k_diag
    n = g.tangential.n_x
    newest = levels[-1]
    a_psi, bracket = norm_weights(newest.rho, newest.rho_x, cfg.cutoff(), g)
    u_hats = _quotients([lv.fields.hat for lv in levels], k + 2, dt)
    r_hats = _quotients([lv.rho_hat for lv in levels], k + 2, dt)
    count = sum(hat is not None for hat in u_hats)  # the quotients 0 .. count - 1 exist

    def orders(s):  # the mu of the (mu, s) terms
        return range(2 * (k - s) + 1)

    # the derivatives of each rho quotient: its E terms', and its D terms'
    # (those of the quotient one order below), in one transform per quotient
    eps_orders = (1, 2, 3, 4) if eps != 0.0 else (1, 2)
    r_terms = [[] for _ in range(count)]
    for s in range(min(count, k + 1)):
        r_terms[s] += [(mu, j) for mu in orders(s) for j in eps_orders]
        if s + 1 < count:
            r_terms[s + 1] += [(mu, j) for mu in orders(s) for j in eps_orders[::2]]
    weights = _interface_weights(newest.rho_x, 1.0 / bracket, g.tangential.spacing)
    iface = [_interface_sums(r_hats[q], n, terms, weights) for q, terms in enumerate(r_terms)]
    first = _stencil_weights((a_psi, None), 1, g)  # a (d_z w)^2 and (d_z w)^2
    second = _stencil_weights((a_psi * a_psi, None), 2, g) if count > 1 else None

    E = X = sob_E = sob_X = D = Y = sob_D = sob_Y = 0.0
    gaps, missing_E, missing_D = [], [], []
    for s in range(k + 1):
        mus = orders(s)
        ws = [(mu,) for mu in mus]  # w = d_x^mu of the s-th quotient
        if s >= count:
            missing_E.extend((mu, s) for mu in mus)
            missing_D.extend((mu, s) for mu in mus)
            continue
        with_D = s + 1 < count
        w_x = [(mu, 1) for mu in mus] if with_D else []
        if s == 0:  # u_0's row (0,) is the newest level's u
            rows, index = newest.u[None], [0]
            if len(ws) + len(w_x) > 1:
                rest, rest_index = _dx_rows(u_hats[0], n, ws[1:] + w_x)
                rows = np.concatenate((rows, rest))
                index += [i + 1 for i in rest_index]
        else:
            rows, index = _dx_rows(u_hats[s], n, ws + w_x)
        normal = _stencil_sums(rows, first).tolist()
        bulk = parseval_sum(power_spectrum(u_hats[s]), tuple(ws + [(mu, 1) for mu in mus]), g)
        E += bulk
        sob_E += bulk
        for mu in mus:
            n_w = normal[index[mu]]
            vx, vxx = iface[s][mu, 1], iface[s][mu, 2]
            E += n_w[0] + vx[_L] + vxx[_I_PSI]
            sob_E += n_w[1] + vx[_PLAIN] + vxx[_PLAIN]
            gaps.append(vxx[_I_PSI] - vxx[_L3])
            if eps != 0.0:
                v3, v4 = iface[s][mu, 3], iface[s][mu, 4]
                X += v3[_L] + v4[_I_PSI]
                sob_X += v3[_PLAIN] + v4[_PLAIN]
        if not with_D:
            missing_D.extend((mu, s) for mu in mus)
            continue
        # a u_n^2 + 2 a u_xn^2 + (a u_nn)^2, and the same without a; the
        # (mu,) rows lead, in the order of mus
        normal_nn = _stencil_sums(rows[:len(mus)], second).tolist()
        bulk = (parseval_sum(power_spectrum(u_hats[s + 1]), tuple(ws), g)  # w_t
                + parseval_sum(power_spectrum(u_hats[s]),
                               tuple(t for mu in mus for t in ((mu, 1), (mu, 2))), g))  # w_x, w_xx
        D += bulk
        sob_D += bulk
        for mu in mus:
            n_w, n_wx, n_nn = normal[index[mu]], normal[index[len(mus) + mu]], normal_nn[mu]
            vtx = iface[s + 1][mu, 1]
            D += n_w[0] + 2.0 * n_wx[0] + n_nn[0] + 2.0 * vtx[_L]
            sob_D += n_w[1] + 2.0 * n_wx[1] + n_nn[1] + vtx[_PLAIN]
            if eps != 0.0:
                vt3 = iface[s + 1][mu, 3]
                Y += 2.0 * vt3[_L]
                sob_Y += vt3[_PLAIN]

    return Functionals(
        E=E, D=D, E_eps=E + eps * X, D_eps=D + eps * Y,
        sobolev_E=sob_E + eps * sob_X, sobolev_D=sob_D + eps * sob_Y,
        missing_E=tuple(missing_E), missing_D=tuple(missing_D),
        i_psi_min_gap=min(gaps, default=0.0),
    )


def energy_eps(levels, cfg):
    """Regularized energy E_eps; epsilon = 0 gives the base energy E exactly."""
    return evaluate_functionals(levels, cfg).E_eps


def dissipation_eps(levels, cfg):
    """Regularized dissipation D_eps; epsilon = 0 gives the base dissipation D."""
    return evaluate_functionals(levels, cfg).D_eps


def sobolev_norms(levels, cfg):
    """Unweighted Sobolev counterparts (norm_E^2, norm_D^2) of E_eps, D_eps."""
    f = evaluate_functionals(levels, cfg)
    return f.sobolev_E, f.sobolev_D


def equivalence_constant(psi, cutoff, kind="E"):
    """Norm-equivalence constant C with 1/C <= weighted/unweighted <= C.

    Built from sup-norm bounds on psi alone: every weighted integrand in
    E_eps (resp. D_eps) differs from its Sobolev counterpart by a factor
    lying between the returned bounds (a_psi in [a_min, a_max], powers of
    <psi> in [1, br_max], the factor-2 boundary weights).
    """
    psi = np.asarray(psi, dtype=float)
    px = d_tangential(psi, 1)
    sup_psi = float(np.abs(psi).max())
    sup_px = float(np.abs(px).max())
    slope = cutoff.max_slope
    if slope * sup_psi >= 1.0:
        return np.inf
    a_min = 1.0 / (1.0 + slope * sup_psi) ** 2
    a_max = (1.0 + sup_px**2) / (1.0 - slope * sup_psi) ** 2
    br_max = np.sqrt(1.0 + sup_px**2)
    if kind == "E":
        r_lo = min(1.0, a_min, br_max**-3)
        r_hi = max(1.0, a_max)
    elif kind == "D":
        r_lo = min(1.0, a_min, a_min**2, 2.0 / br_max)
        r_hi = max(1.0, a_max, a_max**2, 2.0)
    else:
        raise ValueError(f"kind must be 'E' or 'D', got {kind!r}")
    return float(max(r_hi, 1.0 / r_lo))


@lru_cache(maxsize=None)
def _normal_stencils(tangential, normal, order):
    """The quadrature of a squared normal derivative of order 1 or 2 as a
    stencil sum, cached per grid pair and order: int f (d_z^order w)^2
    over both half-strips (``bulk_sum`` of ``first_walls`` or
    ``second_walls`` on ``halves``) is

        sum f_c w_c c^2  +  sum f[:, rows] w_e (w @ S)^2

    Here c are the centered differences on the flattened (C-order) field,
    w_{p+1} - w_{p-1} (order 1) or w_{p+1} - 2 w_p + w_{p-1} (order 2) at
    each flat node p but the first and last, and f_c the weight field at
    those nodes.  w_c is zero on the walls, where c reaches into the next
    x row, and on the interface row.  S holds the four one-sided stencils
    (3-point for order 1, 4-point for order 2): the walls, and the
    interface row from below and from above.  Returns (w_c, rows, S,
    w_e); the weights hold the quadrature and 1/(2 dz)^2 or 1/dz^4.
    """
    n_z, mid, dz = normal.n_z, normal.i_mid, normal.dz
    scale = tangential.spacing * dz / ((2.0 * dz) ** 2 if order == 1 else dz**4)
    per_row = np.full(n_z, scale)
    per_row[[0, mid, n_z - 1]] = 0.0
    w_c = np.tile(per_row, tangential.n_x)[1:-1]
    rows = np.array([0, mid, mid, n_z - 1])
    taps = FIRST_WALL_TAPS if order == 1 else SECOND_WALL_TAPS
    S = np.zeros((n_z, 4))
    for col, (i, step) in enumerate(((0, 1), (mid, -1), (mid, 1), (n_z - 1, -1))):
        # a first derivative's stencil changes sign with its direction
        S[i + step * np.arange(len(taps)), col] = np.multiply(taps, step if order == 1 else 1)
    w_e = np.full(4, 0.5 * scale)  # the ends of the half-strips
    for v in (w_c, rows, S, w_e):
        v.setflags(write=False)
    return w_c, rows, S, w_e


def _stencil_weights(fields, order, grids):
    """The weights of ``_stencil_sums`` for the weight fields ``fields``
    ((n_x, n_z) arrays, or None for 1), one row each: (centered
    (K, n_x n_z - 2), edges (K, n_x, 4), order, S)."""
    w_c, rows, S, w_e = _normal_stencils(grids.tangential, grids.normal, order)
    centered = np.empty((len(fields), w_c.size))
    edges = np.empty((len(fields), grids.tangential.n_x, 4))
    for f, row_c, row_e in zip(fields, centered, edges):
        if f is None:
            row_c[:], row_e[:] = w_c, w_e
        else:
            np.multiply(f.reshape(-1)[1:-1], w_c, out=row_c)
            np.multiply(f[:, rows], w_e, out=row_e)
    return centered, edges, order, S


def _stencil_sums(rows, weights):
    """(m, K): for each stacked bulk field w of ``rows`` (m, n_x, n_z) and
    each weight field f of ``weights`` (``_stencil_weights``), int f
    (d_z^order w)^2 over both half-strips, by ``_normal_stencils``' stencil
    sum: one weighted reduction of all rows' squared stencils per part."""
    centered, edges, order, S = weights
    m = len(rows)
    flat = rows.reshape(m, -1)
    if order == 1:
        c = flat[:, 2:] - flat[:, :-2]
    else:
        c = flat[:, 1:] - flat[:, :-1]
        c = c[:, 1:] - c[:, :-1]
    c *= c
    e = rows @ S
    e *= e
    return c @ centered.T + e.reshape(m, -1) @ edges.reshape(len(edges), -1).T


class EnergyNormK0:
    """The order-0 norm: E_eps at diagnostic order 0 with the weights of
    one interface psi frozen, set up once for ``state_energy_k0`` (by
    ``stepper.run`` once per dt, at the level the dt starts from, beside
    the dt's bulk operator).

    psi_x (the spectral slope of psi), a_psi (bulk, (n_x, n_z)) and
    bracket = <psi> ((n_x,)) are the interface derivative and the
    ``coefficients`` fields at psi, which callers already hold; the run's
    ``cfg`` gives the grids and epsilon.  Holds the ``_stencil_weights``
    of a_psi for the normal-derivative term and the ``_interface_weights``
    of psi; the Parseval weights of int u^2 + u_x^2 are cached per grid
    pair.
    """

    def __init__(self, psi_x, a_psi, bracket, cfg):
        grids = self.grids = cfg.grids()
        self.eps = float(cfg.epsilon)
        self.normal = _stencil_weights((np.asarray(a_psi, dtype=float),), 1, grids)
        self.interface = _interface_weights(np.asarray(psi_x, dtype=float),
                                            1.0 / np.asarray(bracket, dtype=float),
                                            grids.tangential.spacing)


def state_energy_k0(u, u_hat, rho_hat, norm):
    """E_eps of the bare state (u, rho) at diagnostic order 0 in the
    ``EnergyNormK0`` ``norm``.

    u_hat and rho_hat are the rffts along x of u and rho, which callers
    already hold; rho_hat None stands for rho = 0, whose terms are exactly
    0 and are skipped.  The unweighted bulk terms int u^2 + u_x^2 are one
    Parseval sum over |u_hat|^2.  The a-weighted normal-derivative term is
    a stencil sum on u (``_stencil_sums``) and the interface terms come
    from rho_hat (``_interface_sums``), both in real space, because their
    weights vary in x.  No 2-D transform and no finiteness check.  Used
    for fixed-point difference norms; no time derivatives enter at order
    0, so no history is needed.
    """
    g = norm.grids
    energy = (parseval_sum(power_spectrum(u_hat), ((0,), (1,)), g)
              + float(_stencil_sums(u[None], norm.normal)[0, 0]))
    if rho_hat is None:
        return energy
    terms = ((0, 1), (0, 2), (0, 3), (0, 4)) if norm.eps != 0.0 else ((0, 1), (0, 2))
    v = _interface_sums(rho_hat, g.tangential.n_x, terms, norm.interface)
    energy += v[0, 1][_L] + v[0, 2][_I_PSI]
    if norm.eps != 0.0:
        energy += norm.eps * (v[0, 3][_L] + v[0, 4][_I_PSI])
    return energy


def conserved_quantity(u, rho, cutoff, grids):
    """int_O u (1 + phi' rho) - int_T rho, the exactly conserved combination.
    No finiteness check."""
    rho = np.asarray(rho, dtype=float)
    _, dphi, _ = grid_profiles(cutoff, grids.normal)
    bulk = bulk_sum(np.asarray(u, dtype=float) * (1.0 + dphi * rho[:, None]), grids)
    return bulk - interface_sum(rho, grids.tangential)


def conservation_residual(old, new):
    """|Delta(int u (1+phi' rho)) - Delta(int rho)| across one accepted step,
    from the conserved quantity Q that the levels ``old`` and ``new``
    (``stepper.Level`` records) hold."""
    return abs(new.Q - old.Q)


def steady_mean(level):
    """Mean interface height of the flat steady state selected by the
    initial ``stepper.Level``, from the conserved quantity Q it holds.

    The conservation law fixes  mean(rho_bar) = [int rho0 - int_O u0 (1+phi' rho0)] / (2 pi).
    """
    # 0 - Q, not -Q: a state with Q = 0 has steady level +0, not -0
    return (0.0 - level.Q) / (2.0 * np.pi)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    r_squared: float
    degenerate: bool


DECAY_SKIP_FRACTION = 0.2  # leading share of the samples decay_fit drops
DECAY_FLOOR = 1e-280  # decay_fit is degenerate where a value reaches it
DECAY_MIN_SAMPLES = 4  # the fewest samples decay_fit accepts


def decay_fit(times, values):
    """Least-squares exponential rate of values(t) ~ C exp(-rate t).

    The first DECAY_SKIP_FRACTION of samples is dropped (transient).  The
    fit is flagged degenerate when values hit DECAY_FLOOR or have no
    dynamic range (log-slope meaningless).  Raises ValueError on fewer
    than DECAY_MIN_SAMPLES aligned samples.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.size < DECAY_MIN_SAMPLES:
        raise ValueError(f"need at least {DECAY_MIN_SAMPLES} aligned samples")
    start = int(np.ceil(DECAY_SKIP_FRACTION * t.size))
    t, v = t[start:], v[start:]
    if np.any(v <= DECAY_FLOOR) or np.ptp(np.log(np.maximum(v, DECAY_FLOOR))) < 1e-12:
        return DecayFit(rate=0.0, r_squared=0.0, degenerate=True)
    y = np.log(v)
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(rate=float(-coef[0]), r_squared=r2, degenerate=False)


@dataclass
class EnergyReport:
    """Per-step diagnostic record (one CSV row of the time series)."""

    t: float
    E: float
    D: float
    E_eps: float
    D_eps: float
    sobolev_E: float
    sobolev_D: float
    cons_residual: float
    rho_dev_L2: float
    identity_residual: Optional[float]
    inner_iters: int
    missing_E: tuple = field(default=(), repr=False)
    missing_D: tuple = field(default=(), repr=False)
    i_psi_min_gap: float = 0.0

    CSV_COLUMNS = (
        "t", "E", "D", "E_eps", "D_eps", "sobolev_E", "sobolev_D",
        "cons_residual", "rho_dev_L2", "identity_residual", "inner_iters",
    )
