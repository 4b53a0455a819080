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
in x and are summed in real space, each bulk integral as one dot product
with cached quadrature weights (``grids.quadrature_weights``).

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
    PERIOD,
    bulk_sum,
    d_tangential,
    d_tangential_hats,
    first_walls,
    halves,
    interface_sum,
    parseval_sum,
    power_spectrum,
    quadrature_weights,
    second_walls,
)
from .transform import grid_profiles, norm_weights


def uniform_step(times, what):
    """The common spacing of ``times`` (None for a single entry); raises
    ValueError naming ``what`` unless the spacing is uniform."""
    steps = np.diff(np.asarray(times, dtype=float))
    if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
        raise ValueError(f"{what} must be uniformly spaced in time")
    return float(steps[0]) if len(steps) else None


def _quotients(levels, name, count, dt):
    """The backward time quotients s = 0 .. count - 1 of the levels'
    attribute ``name`` at the newest time, None where the history is too
    short: the window is stacked once and differenced once per order (the
    s-th quotient is ``np.diff`` of order s of the newest s + 1 levels,
    over dt^s).  The transform of a quotient is the same quotient of the
    levels' transforms."""
    values = [getattr(lv, name) for lv in levels[-count:]]
    out, diffs = [values[-1]], np.stack(values)
    for s in range(1, count):
        if s >= len(values):
            out.append(None)
            continue
        diffs = diffs[1:] - diffs[:-1]
        out.append(diffs[-1] / dt**s)
    return out


def _i_psi_args(omega, psi):
    """(Hessian of omega, 1/<psi>, psi_x, grid spacing)."""
    px = d_tangential(psi, 1)
    oxx = d_tangential(omega, 2)
    return oxx, 1.0 / np.sqrt(1.0 + px**2), px, PERIOD / oxx.shape[0]


def i_psi(omega, psi):
    """Weighted interface form I_psi evaluated on the Hessian of omega."""
    return _i_psi_form(*_i_psi_args(omega, psi))


def i_psi_lower_bound(omega, psi):
    """The pointwise lower bound int |Hess omega|^2 <psi>^-3 (equality in 1-D)."""
    oxx, L, _, h = _i_psi_args(omega, psi)
    return _i_psi_lower(oxx, L, h)


def _dx_table(hat, n, terms):
    """{factors: derivative of v} for each derivative of ``terms``, named
    by the orders of its factors ((mu,) is d_x^mu, (mu, 1) is d_x of
    d_x^mu; (0,) is v itself), v the n-point field whose rfft along axis 0
    is ``hat``, from one batched inverse transform (``d_tangential_hats``,
    which alone decides the Nyquist mode).  No finiteness check."""
    terms = tuple(terms)
    return dict(zip(terms, d_tangential_hats(hat, n, terms)))


def _i_psi_form(oxx, L, px, h):
    """I_psi from the Hessian oxx and the weights on a tangential grid of
    spacing h."""
    return float((oxx**2 * L - (oxx * px) ** 2 * L**3).sum() * h)


def _i_psi_lower(oxx, L, h):
    """The lower bound of ``_i_psi_form`` on the same arguments."""
    return float((oxx**2 * L**3).sum() * h)


def _interface_orders(mu, eps):
    """The derivatives of the s-th quotient of rho that ``_interface_terms``
    reads for its (mu, s) term, each named by the orders of its factors:
    (mu, j) is d_x^j of w = d_x^mu rho_s, j = 1, 2 (and 3, 4 for eps != 0)."""
    return tuple((mu, j) for j in range(1, 5 if eps != 0.0 else 3))


def _interface_terms(v, mu, eps, L, px, g):
    """The interface part of the (mu, s) term of E, the eps coefficient X
    of E_eps = E + eps X, the unweighted counterparts of both, the I_psi
    part of E and the Hessian it is taken on, from the ``_dx_table`` v of
    the s-th quotient of rho that holds ``_interface_orders(mu, eps)``."""
    h = g.tangential.spacing
    vx, vxx, *higher = (v[order] for order in _interface_orders(mu, eps))
    i_form = _i_psi_form(vxx, L, px, h)
    E = interface_sum(vx**2 * L, g.tangential) + i_form
    sob_E = interface_sum(vx**2 + vxx**2, g.tangential)
    X = sob_X = 0.0
    if eps != 0.0:
        v3, v4 = higher
        X = interface_sum(v3**2 * L, g.tangential) + _i_psi_form(v4, L, px, h)
        sob_X = interface_sum(v3**2 + v4**2, g.tangential)
    return E, X, sob_E, sob_X, i_form, vxx


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
    rho_s is the same quotient of the levels' rffts, and those of the
    one-sided normal derivatives d_z u_s, d_z^2 u_s are the same stencils
    on u_s's (both are linear along z, and the transform acts along x).
    The unweighted bulk sums of E and D, int w^2 + w_x^2 and
    int w_t^2 + w_x^2 + w_xx^2 with w = d_x^mu u_s, are summed on those
    transforms by Parseval (``parseval_weights``).  Every other d_x^mu is
    one multiplication by a cached (ik)^n and an inverse transform, all
    those of one field (d_z u_s, d_z^2 u_s, rho_s or rho_{s+1} for one s)
    batched into one call: the a-weighted normal-derivative terms and the
    interface terms have weights that vary in x, so they are summed in
    real space, by one weighted sum per integral.  Each derivative is
    named by the orders of its factors, (mu,) or (mu, j) for d_x^j of
    d_x^mu, and ``grids`` decides its Nyquist mode from them, as nested
    ``d_tangential`` calls would.
    E_eps = E + eps X and D_eps = D + eps Y share their arrays with E and
    D, and the Sobolev sums are the same arrays without the weights.

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
    dz = g.normal.dz
    px = levels[-1].rho_x
    a_psi, bracket = norm_weights(levels[-1].rho, px, cfg.cutoff(), g)
    a_h = halves(a_psi, g.normal)
    W = quadrature_weights(a_h.shape, g)  # bulk_sum as a dot product
    aW = a_h * W
    a2W = a_h * aW
    L = 1.0 / bracket
    u_hats = _quotients(levels, "u_hat", k + 2, dt)
    r_hats = _quotients(levels, "rho_hat", k + 2, dt)
    powers = [None if hat is None else power_spectrum(hat) for hat in u_hats]

    E = X = sob_E = sob_X = D = Y = sob_D = sob_Y = 0.0
    gaps, missing_E, missing_D = [], [], []
    for s in range(k + 1):
        mus = range(2 * (k - s) + 1)
        ws = [(mu,) for mu in mus]  # w = d_x^mu of the s-th quotient
        if u_hats[s] is None:
            missing_E.extend((mu, s) for mu in mus)
            missing_D.extend((mu, s) for mu in mus)
            continue
        # one batched inverse transform per field: d_x^mu of u_n for E, and
        # d_x^(mu+1) of u_n, d_x^mu of u_nn and the rho_t terms for D
        with_D = u_hats[s + 1] is not None
        u_h = halves(u_hats[s], g.normal)
        wn = _dx_table(first_walls(u_h, dz), n,
                       ws + ([(mu, 1) for mu in mus] if with_D else []))
        v = _dx_table(r_hats[s], n, [o for mu in mus for o in _interface_orders(mu, eps)])
        if with_D:
            wnn = _dx_table(second_walls(u_h, dz), n, ws)
            vt = _dx_table(r_hats[s + 1], n, [(mu, 1) for mu in mus]
                           + ([(mu, 3) for mu in mus] if eps != 0.0 else []))
        for mu in mus:
            wn2 = wn[(mu,)] ** 2
            bulk = parseval_sum(powers[s], ((mu,), (mu, 1)), g)  # w, w_x
            e, x, se, sx, i_form, vxx = _interface_terms(v, mu, eps, L, px, g)
            E += bulk + float(np.vdot(aW, wn2)) + e
            sob_E += bulk + float(np.vdot(W, wn2)) + se
            X, sob_X = X + x, sob_X + sx
            gaps.append(i_form - _i_psi_lower(vxx, L, g.tangential.spacing))
            if not with_D:
                missing_D.append((mu, s))
                continue
            # a u_n^2 + 2 a u_xn^2 + (a u_nn)^2, and the same without a
            first = wn2 + 2.0 * wn[mu, 1] ** 2
            wnn2 = wnn[(mu,)] ** 2
            vtx = vt[mu, 1]
            bulk = (parseval_sum(powers[s + 1], ((mu,),), g)  # w_t
                    + parseval_sum(powers[s], ((mu, 1), (mu, 2)), g))  # w_x, w_xx
            D += (bulk + float(np.vdot(aW, first)) + float(np.vdot(a2W, wnn2))
                  + 2.0 * interface_sum(vtx**2 * L, g.tangential))
            sob_D += (bulk + float(np.vdot(W, first + wnn2))
                      + interface_sum(vtx**2, g.tangential))
            if eps != 0.0:
                vt3 = vt[mu, 3]
                Y += 2.0 * interface_sum(vt3**2 * L, g.tangential)
                sob_Y += interface_sum(vt3**2, g.tangential)

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
def _normal_stencils(tangential, normal):
    """The a-weighted normal-derivative term of the order-0 norm as a
    stencil sum, cached per grid pair: int a u_n^2 over both half-strips
    (``bulk_sum`` of ``first_walls`` on ``halves``) is

        sum a[:, 1:-1] c w_c c  +  sum a[:, rows] (u @ S) w_e (u @ S)

    with c = u[:, 2:] - u[:, :-2] the centered differences (zero weight on
    the interface row) and S the four one-sided 3-point stencils: the
    walls, and the interface row from below and from above.  Returns
    (w_c, rows, S, w_e); the weights hold the quadrature and 1/(2 dz)^2.
    """
    n_z, mid, dz = normal.n_z, normal.i_mid, normal.dz
    scale = tangential.spacing / (4.0 * dz)  # dz h / (2 dz)^2
    w_c = np.full(n_z - 2, scale)
    w_c[mid - 1] = 0.0
    rows = np.array([0, mid, mid, n_z - 1])
    S = np.zeros((n_z, 4))
    for col, (i, step) in enumerate(((0, 1), (mid, -1), (mid, 1), (n_z - 1, -1))):
        S[[i, i + step, i + 2 * step], col] = -3.0 * step, 4.0 * step, -step
    w_e = np.full(4, 0.5 * scale)  # the ends of the half-strips
    for v in (w_c, rows, S, w_e):
        v.setflags(write=False)
    return w_c, rows, S, w_e


class EnergyNormK0:
    """The order-0 norm: E_eps at diagnostic order 0 with the weights of
    one interface psi frozen, set up once for ``state_energy_k0`` (by the
    stepper once per step, with its LU, at iterate 1's interface).

    psi_x (the spectral slope of psi), a_psi (bulk, (n_x, n_z)) and
    bracket = <psi> ((n_x,)) are the interface derivative and the
    ``coefficients`` fields at psi, which callers already hold; the run's
    ``cfg`` gives the grids and epsilon.  Holds a_psi times the weights of
    the normal-derivative stencil sum (``_normal_stencils``), 1/<psi> and
    psi_x; the Parseval weights of int u^2 + u_x^2 are cached per grid
    pair.
    """

    def __init__(self, psi_x, a_psi, bracket, cfg):
        grids = self.grids = cfg.grids()
        self.eps = float(cfg.epsilon)
        self.psi_x = np.asarray(psi_x, dtype=float)
        self.L = 1.0 / np.asarray(bracket, dtype=float)
        w_c, rows, self.stencils, w_e = _normal_stencils(grids.tangential, grids.normal)
        a_psi = np.asarray(a_psi, dtype=float)
        self.a_centered = a_psi[:, 1:-1] * w_c
        self.a_edges = a_psi[:, rows] * w_e


def state_energy_k0(u, u_hat, rho_hat, norm):
    """E_eps of the bare state (u, rho) at diagnostic order 0 in the
    ``EnergyNormK0`` ``norm``.

    u_hat and rho_hat are the rffts along x of u and rho, which callers
    already hold; rho_hat None stands for rho = 0, whose terms are exactly
    0 and are skipped.  The unweighted bulk terms int u^2 + u_x^2 are one
    Parseval sum over |u_hat|^2.  The a-weighted normal-derivative term is
    a stencil sum on u and the interface terms come from rho_hat, both in
    real space, because their weights vary in x.  No 2-D transform and no
    finiteness check.  Used for fixed-point difference norms; no time
    derivatives enter at order 0, so no history is needed.
    """
    g = norm.grids
    centered = u[:, 2:] - u[:, :-2]
    edges = u @ norm.stencils
    energy = (parseval_sum(power_spectrum(u_hat), ((0,), (1,)), g)
              + float(np.vdot(norm.a_centered * centered, centered))
              + float(np.vdot(norm.a_edges * edges, edges)))
    if rho_hat is None:
        return energy
    v = _dx_table(rho_hat, g.tangential.n_x, _interface_orders(0, norm.eps))
    e, x, *_ = _interface_terms(v, 0, norm.eps, norm.L, norm.psi_x, g)
    return energy + e + norm.eps * x


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
