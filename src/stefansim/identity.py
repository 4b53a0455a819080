"""Exact energy-balance identity for the frozen-coefficient model problem.

For the linear model step (heat operator with weights built from psi, the
curvature-linearized boundary condition, and the regularized jump relation)
an exact identity holds:

    d/dt E_bar + D_bar = int_O (P + R) - int_T (Q + S + T),

with the model energies

    E_bar = 1/2 int u^2 + int (|u_x|^2 + a u_n^2)
            + 1/2 int_T (|w_x|^2 + eps |w_xxx|^2) <psi>^-1
            + I_psi(w_xx) + eps I_psi(w_xxxx-form)
    D_bar = int (u_t^2 + u_x^2 + a u_n^2 + u_xx^2 + 2 a u_xn^2 + (a u_nn)^2)
            + 2 int_T (|w_xt|^2 + eps |w_xxxt|^2) <psi>^-1

(note the 1/2 weights and the time-differentiated eps-dissipation term:
these are what the integration-by-parts derivation actually produces, and
the residual of this evaluator converges to zero under refinement only
with these weights).

Everything is specialized to one tangential dimension and to the
application psi = chi = omega = rho with zero Dirichlet/jump corrections
(G = h = 0).  The terms of the general statement that carry a
(chi - omega) factor -- 2 eps int rho_xxxxt (chi_xxxx - omega_xxxx)
(L - rho_x^2 L3), int rho_t (chi_x - omega_x) L_x -- are therefore zero
and are not evaluated.  With L = <rho>^-1, L3 = L^3, L5 = L^5 and
subscripts for derivatives of rho, the statement's boundary term is

    T = A(rxx, rxt) + eps A(rxxxx, rxxxt) + 2 eps rxxxxt ((rxx L3)_xx - rxxxx L3),
    A(W, V) = -W^2 L_t + 2 V W L_x - 2 V L_x W + 2 W^2 rx rxt L3 + (W rx)^2 L3_t
              - 2 W ([rx^2 V L3]_x - rx^2 V_x L3) + 2 V ([rx^2 W L3]_x - rx^2 W_x L3).

In one tangential dimension the two L_x terms cancel, and so do the two
bracket terms: by the product rule they are -2 and +2 times the same
2 rx rxx V W L3 + rx^2 V W L3_x.  With L_t = -rx rxt L3,
L3_t = -3 rx rxt L5 and L3 - rx^2 L5 = L5, what is left is

    T = 3 rx rxt L5 (rxx^2 + eps rxxxx^2) + 2 eps rxxxxt (2 rxxx L3_x + rxx L3_xx),

which is what is evaluated.

All time derivatives are *centered* difference quotients at the window
midpoint, so the evaluator's own error is O(dt^2) and the reported
residual is dominated by the solver and quadrature errors.

The window is three ``stepper.Level`` records, and the run's ``cfg``
gives epsilon, the grids and the cutoff (read by attribute: ``stepper``
imports this module, which so cannot import ``SolverConfig``).  The
evaluator makes no forward transform: the transforms of rho_t and of u_n
are the same quotient and stencil of the levels' transforms, in the real
layout of ``grids.RealTransforms``, and the tangential derivatives of one
field are products with the cached ``RealTransforms`` matrices, one per
distinct multiplier (``RealTransforms.d_x``); nothing here calls numpy's
FFT.  The model energy of each level is evaluated once and kept on
the level.
"""
from __future__ import annotations

from dataclasses import dataclass

from .functionals import uniform_step
from .grids import (
    bulk_sum,
    first_walls,
    halves,
    interface_sum,
    parseval_sum,
    power_spectrum,
    real_transforms,
    second_walls,
)
from .transform import coefficients, grid_profiles, norm_weights

IDENTITY_FLOOR_PER_NODE = 1e-14


@dataclass(frozen=True)
class IdentityReport:
    t: float
    lhs: float
    rhs: float
    residual: float
    dE_dt: float
    D_bar: float
    bulk_P: float
    bulk_R: float
    bdry_Q: float
    bdry_S: float
    bdry_T: float


def _a_derivs(rho, rx, rxx, rt, rxt, cutoff, grids):
    """n/t/x derivatives of a (exact chain rule in phi, spectral in x)."""
    phi, dphi, d2phi = grid_profiles(cutoff, grids.normal)
    rc, rtc = rho[:, None], rt[:, None]
    rxc, rxxc, rxtc = rx[:, None], rxx[:, None], rxt[:, None]
    den = 1.0 + dphi * rc
    slope2 = (phi * rxc) ** 2
    a_n = 2.0 * phi * dphi * rxc**2 / den**2 - 2.0 * d2phi * rc * (1.0 + slope2) / den**3
    a_t = 2.0 * phi**2 * rxc * rxtc / den**2 - 2.0 * dphi * rtc * (1.0 + slope2) / den**3
    a_x = 2.0 * phi**2 * rxc * rxxc / den**2 - 2.0 * dphi * rxc * (1.0 + slope2) / den**3
    return a_n, a_t, a_x


def model_energy(level, cfg):
    """E_bar of one level (no time derivatives enter) at ``cfg.epsilon``,
    evaluated once per epsilon and kept on the level as ``E_bar``.
    int u_x^2 is a Parseval sum on the level's transform of u.  No
    finiteness check."""
    eps = cfg.epsilon
    if level.E_bar is not None and level.E_bar[0] == eps:
        return level.E_bar[1]
    grids = cfg.grids()
    tg = grids.tangential
    u, rho, rx, rxx = level.u, level.rho, level.rho_x, level.rho_xx
    rxxx, rxxxx = real_transforms(tg.n_x).d_x(level.rho_hat, ((3,), (4,)))
    a, bracket = norm_weights(rho, rx, cfg.cutoff(), grids)
    L = 1.0 / bracket
    un = first_walls(halves(u, grids.normal), grids.normal.dz)
    val = 0.5 * bulk_sum(u**2, grids)
    val += parseval_sum(power_spectrum(level.fields.hat), ((1,),), grids)
    val += bulk_sum(halves(a, grids.normal) * un**2, grids)
    val += 0.5 * interface_sum((rx**2 + eps * rxxx**2) * L, tg)
    val += interface_sum((rxx**2 + eps * rxxxx**2) * L**3, tg)
    level.E_bar = (eps, float(val))
    return level.E_bar[1]


def identity_residual_k0(window, cfg):
    """Evaluate the model-problem identity on a centered window of states.

    Parameters
    ----------
    window : three ``stepper.Level`` records, uniformly spaced in t.
        The identity is evaluated at the middle level, with the bulk
        source f = -B u_xz - c u_z that the full evolution feeds into the
        model step.  No finiteness check: ``run`` checks each accepted
        state once.
    cfg : the run's settings; epsilon, the grids and the cutoff are read
        from it.
    """
    if len(window) != 3:
        raise ValueError(f"window must hold 3 samples, got {len(window)}")
    dt = uniform_step([lv.t for lv in window], "window")
    eps, cutoff, grids = cfg.epsilon, cfg.cutoff(), cfg.grids()
    prev, mid, nxt = window
    nz, tg = grids.normal, grids.tangential
    n, u_c, rho_c = tg.n_x, mid.u, mid.rho

    # centered time quotients at the midpoint, and their transforms
    u_t = (nxt.u - prev.u) / (2.0 * dt)
    rt = (nxt.rho - prev.rho) / (2.0 * dt)
    rx, rxx = mid.rho_x, mid.rho_xx
    t = real_transforms(n)
    rxxx, rxxxx = t.d_x(mid.rho_hat, ((3,), (4,)))
    rxt, rxxt, rxxxt, rxxxxt = t.d_x((nxt.rho_hat - prev.rho_hat) / (2.0 * dt),
                                     ((1,), (2,), (3,), (4,)))

    coef = coefficients(rho_c, rt, cutoff, grids, rho_x=rx, rho_xx=rxx)
    L = 1.0 / coef.bracket
    L3, L5 = L**3, L**5
    L_t = -rx * rxt * L3
    L_x = -rx * rxx * L3
    L3_x = -3.0 * rx * rxx * L5
    L3_xx = -3.0 * (rxx**2 + rx * rxxx) * L5 + 15.0 * rx**2 * rxx**2 * L**7
    g = -(rx**2) * rxx * L3
    g_t = -(2.0 * rx * rxt * rxx + rx**2 * rxxt) * L3 + 3.0 * rx**3 * rxx * rxt * L5

    # bulk fields at the midpoint, both half-strips in the ``halves`` layout
    # (one-sided where z-derivatives enter)
    a, B, c, a_n, a_t, a_x = (halves(v, nz) for v in (
        coef.a, coef.B, coef.c, *_a_derivs(rho_c, rx, rxx, rt, rxt, cutoff, grids)))
    ux, uxx = t.d_x(mid.fields.hat, ((1,), (2,)))
    u, ut, uxx_h = halves(u_c, nz), halves(u_t, nz), halves(uxx, nz)
    un = first_walls(u, nz.dz)
    uxn = t.d_x(first_walls(halves(mid.fields.hat, nz), nz.dz), ((1,),))[0]
    unn = second_walls(u, nz.dz)
    f = -B * uxn - c * un

    # P = f u - a_n u_n u ;  R = f^2 + a_t u_n^2 - 2 a_n u_t u_n
    #                            + 2 a_n u_xx u_n - 2 a_x u_xn u_n
    bulk_P = bulk_sum(f * u - a_n * un * u, grids)
    bulk_R = bulk_sum(f**2 + a_t * un**2 - 2.0 * a_n * ut * un
                      + 2.0 * a_n * uxx_h * un - 2.0 * a_x * uxn * un, grids)

    Q = (-0.5 * (rx**2 + eps * rxxx**2) * L_t + rt * rx * L_x
         + eps * rxxxt * L_x * rxx - (rt + eps * rxxxxt) * g)
    bdry_Q = interface_sum(Q, tg)
    S = (2.0 * rxt * L_x * rt + 2.0 * eps * rxxxt * L_x * rxxt
         - 2.0 * (rt + eps * rxxxxt) * (rxx * L_t + g_t))
    bdry_S = interface_sum(S, tg)
    T = (3.0 * rx * rxt * L5 * (rxx**2 + eps * rxxxx**2)
         + 2.0 * eps * rxxxxt * (2.0 * rxxx * L3_x + rxx * L3_xx))
    bdry_T = interface_sum(T, tg)

    # LHS: centered difference of E_bar plus D_bar at the midpoint
    e_prev = model_energy(prev, cfg)
    e_next = model_energy(nxt, cfg)
    dE_dt = (e_next - e_prev) / (2.0 * dt)
    D_bar = bulk_sum(u_t**2 + ux**2 + uxx**2, grids)
    D_bar += bulk_sum(a * un**2 + 2.0 * a * uxn**2 + (a * unn) ** 2, grids)
    D_bar += 2.0 * interface_sum((rxt**2 + eps * rxxxt**2) * L, tg)

    lhs = dE_dt + D_bar
    rhs = bulk_P + bulk_R - (bdry_Q + bdry_S + bdry_T)
    n_nodes = grids.tangential.n_x * grids.normal.n_z + grids.tangential.n_x
    floor = IDENTITY_FLOOR_PER_NODE * n_nodes
    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + floor)
    return IdentityReport(t=float(mid.t), lhs=float(lhs), rhs=float(rhs),
                          residual=float(residual), dE_dt=float(dE_dt),
                          D_bar=float(D_bar), bulk_P=float(bulk_P),
                          bulk_R=float(bulk_R), bdry_Q=float(bdry_Q),
                          bdry_S=float(bdry_S), bdry_T=float(bdry_T))
