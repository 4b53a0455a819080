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
(G = h = 0); the terms of the general statement that carry a (chi - omega)
factor are still evaluated -- with chi := omega -- and asserted to vanish
identically.

All time derivatives are *centered* difference quotients at the window
midpoint, so the evaluator's own error is O(dt^2) and the reported
residual is dominated by the solver and quadrature errors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import (
    d_normal,
    d_normal2,
    d_tangential,
    integrate_bulk,
    integrate_bulk_sided,
    integrate_interface,
)
from .transform import coefficients, grid_profiles

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
    cross_terms_max: float


def _interface_derivs(rho):
    r = np.asarray(rho, dtype=float)
    return {order: (d_tangential(r, order) if order else r) for order in range(6)}


def _weights(rx):
    L = 1.0 / np.sqrt(1.0 + rx**2)
    return L, L**3, L**5


def _bulk_coefficient_derivs(rho, rho_t, cutoff, grids):
    """a and its n/t/x derivatives (exact chain rule in phi, spectral in x)."""
    r = np.asarray(rho, dtype=float)
    rt = np.asarray(rho_t, dtype=float)
    rx = d_tangential(r, 1)
    rxx = d_tangential(r, 2)
    rxt = d_tangential(rt, 1)
    phi, dphi, d2phi = grid_profiles(cutoff, grids.normal)
    rc, rtc = r[:, None], rt[:, None]
    rxc, rxxc, rxtc = rx[:, None], rxx[:, None], rxt[:, None]
    den = 1.0 + dphi * rc
    slope2 = (phi * rxc) ** 2
    a = (1.0 + slope2) / den**2
    a_n = 2.0 * phi * dphi * rxc**2 / den**2 - 2.0 * d2phi * rc * (1.0 + slope2) / den**3
    a_t = 2.0 * phi**2 * rxc * rxtc / den**2 - 2.0 * dphi * rtc * (1.0 + slope2) / den**3
    a_x = 2.0 * phi**2 * rxc * rxxc / den**2 - 2.0 * dphi * rxc * (1.0 + slope2) / den**3
    return a, a_n, a_t, a_x


def model_energy(u, rho, eps, cutoff, grids):
    """E_bar of one sample (no time derivatives enter)."""
    r = _interface_derivs(rho)
    L, L3, _ = _weights(r[1])
    coef = coefficients(rho, np.zeros_like(r[0]), cutoff, grids)
    u = np.asarray(u, dtype=float)
    ux = d_tangential(u, 1)
    un_up = d_normal(u, grids.normal, side="above")
    un_lo = d_normal(u, grids.normal, side="below")
    val = 0.5 * integrate_bulk(u**2, grids)
    val += integrate_bulk(ux**2, grids)
    val += integrate_bulk_sided(coef.a * un_up**2, coef.a * un_lo**2, grids)
    tg = grids.tangential
    val += 0.5 * integrate_interface((r[1] ** 2 + eps * r[3] ** 2) * L, tg)
    val += integrate_interface((r[2] ** 2 + eps * r[4] ** 2) * L3, tg)
    return float(val)


def identity_residual_k0(window, eps, cutoff, grids,
                         f_override: Optional[Callable[[dict], tuple]] = None):
    """Evaluate the model-problem identity on a centered window of states.

    Parameters
    ----------
    window : sequence of (t, u, rho), odd length >= 3, uniform spacing.
        The identity is evaluated at the middle sample.
    f_override : optional callable(fields) -> (f_above, f_below)
        Replaces the default bulk source f = -B u_xz - c u_z (the source
        the full evolution feeds into the model step).  Used by tests that
        manufacture trajectories with a known f.
    """
    if len(window) < 3 or len(window) % 2 == 0:
        raise ValueError("window must have odd length >= 3")
    m = len(window) // 2
    ts = np.array([w[0] for w in window], dtype=float)
    steps = np.diff(ts)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15):
        raise ValueError("window must be uniformly spaced")
    dt = float(steps[0])
    t_c, u_c, rho_c = window[m]
    _, u_prev, rho_prev = window[m - 1]
    _, u_next, rho_next = window[m + 1]
    u_c = np.asarray(u_c, dtype=float)

    # centered time quotients at the midpoint
    u_t = (np.asarray(u_next, dtype=float) - np.asarray(u_prev, dtype=float)) / (2.0 * dt)
    rho_t = (np.asarray(rho_next, dtype=float) - np.asarray(rho_prev, dtype=float)) / (2.0 * dt)

    r = _interface_derivs(rho_c)
    rx, rxx, rxxx, rxxxx, rxxxxx = r[1], r[2], r[3], r[4], r[5]
    rt = rho_t
    rxt = d_tangential(rt, 1)
    rxxt = d_tangential(rt, 2)
    rxxxt = d_tangential(rt, 3)
    rxxxxt = d_tangential(rt, 4)

    L, L3, L5 = _weights(rx)
    L_t = -rx * rxt * L3
    L_x = -rx * rxx * L3
    L3_t = -3.0 * rx * rxt * L5
    L3_x = -3.0 * rx * rxx * L5
    L3_xx = -3.0 * (rxx**2 + rx * rxxx) * L5 + 15.0 * rx**2 * rxx**2 * L**7
    g = -(rx**2) * rxx * L3
    g_t = -(2.0 * rx * rxt * rxx + rx**2 * rxxt) * L3 + 3.0 * rx**3 * rxx * rxt * L5

    # bulk fields at the midpoint (one-sided where z-derivatives enter)
    a, a_n, a_t, a_x = _bulk_coefficient_derivs(rho_c, rho_t, cutoff, grids)
    coef = coefficients(rho_c, rho_t, cutoff, grids)
    ux = d_tangential(u_c, 1)
    uxx = d_tangential(u_c, 2)
    un_up = d_normal(u_c, grids.normal, side="above")
    un_lo = d_normal(u_c, grids.normal, side="below")
    uxn_up = d_tangential(un_up, 1)
    uxn_lo = d_tangential(un_lo, 1)

    fields = dict(u=u_c, u_t=u_t, ux=ux, uxx=uxx, un=(un_up, un_lo),
                  uxn=(uxn_up, uxn_lo), coef=coef, rho=np.asarray(rho_c, dtype=float),
                  rho_t=rho_t, grids=grids)
    if f_override is None:
        f_up = -coef.B * uxn_up - coef.c * un_up
        f_lo = -coef.B * uxn_lo - coef.c * un_lo
    else:
        f_up, f_lo = f_override(fields)

    # P = f u - a_n u_n u ;  R = f^2 + a_t u_n^2 - 2 a_n u_t u_n
    #                            + 2 a_n u_xx u_n - 2 a_x u_xn u_n
    def P(side_f, side_un):
        return side_f * u_c - a_n * side_un * u_c

    def R(side_f, side_un, side_uxn):
        return (side_f**2 + a_t * side_un**2 - 2.0 * a_n * u_t * side_un
                + 2.0 * a_n * uxx * side_un - 2.0 * a_x * side_uxn * side_un)

    bulk_P = integrate_bulk_sided(P(f_up, un_up), P(f_lo, un_lo), grids)
    bulk_R = integrate_bulk_sided(R(f_up, un_up, uxn_up), R(f_lo, un_lo, uxn_lo), grids)

    tg = grids.tangential

    Q = (-0.5 * (rx**2 + eps * rxxx**2) * L_t + rt * rx * L_x
         + eps * rxxxt * L_x * rxx - (rt + eps * rxxxxt) * g)
    bdry_Q = integrate_interface(Q, tg)

    S = (2.0 * rxt * L_x * rt + 2.0 * eps * rxxxt * L_x * rxxt
         - 2.0 * (rt + eps * rxxxxt) * (rxx * L_t + g_t))
    bdry_S = integrate_interface(S, tg)

    # T = A + B_term; chi == omega == rho throughout.  The two middle pairs
    # cancel in one tangential dimension but are kept literal; the iterated
    # outer derivatives [psi_x^2 (.) L3]_x are exact chain-rule expansions.
    A = (-(rxx**2) * L_t
         + 2.0 * rxt * rxx * L_x
         - 2.0 * rxt * L_x * rxx
         + 2.0 * rxx**2 * rx * rxt * L3
         + (rxx * rx) ** 2 * L3_t
         - 2.0 * rxx * ((2.0 * rx * rxx * rxt * L3 + rx**2 * rxxt * L3
                         + rx**2 * rxt * L3_x) - rx**2 * rxxt * L3)
         + 2.0 * rxt * ((2.0 * rx * rxx**2 * L3 + rx**2 * rxxx * L3
                         + rx**2 * rxx * L3_x) - rx**2 * rxxx * L3))
    comm = 2.0 * rxxx * L3_x + rxx * L3_xx  # (rxx L3)_xx - rxxxx L3, chain rule
    B_term = (-eps * rxxxx**2 * L_t
              + 2.0 * eps * rxxxt * rxxxx * L_x
              - 2.0 * eps * rxxxt * L_x * rxxxx
              + 2.0 * eps * rxxxx**2 * rx * rxt * L3
              + eps * (rxxxx * rx) ** 2 * L3_t
              - 2.0 * eps * rxxxx * ((2.0 * rx * rxx * rxxxt * L3 + rx**2 * rxxxxt * L3
                                      + rx**2 * rxxxt * L3_x) - rx**2 * rxxxxt * L3)
              + 2.0 * eps * rxxxt * ((2.0 * rx * rxx * rxxxx * L3 + rx**2 * rxxxxx * L3
                                      + rx**2 * rxxxx * L3_x) - rx**2 * rxxxxx * L3)
              + 2.0 * eps * comm * rxxxxt)

    # cross terms of the general statement, evaluated at chi := omega
    chi = r[0]
    d1_gap = d_tangential(chi, 1) - rx
    d4_gap = d_tangential(chi, 4) - rxxxx
    cross1 = 2.0 * eps * integrate_interface(rxxxxt * d4_gap * L, tg)
    cross2 = -2.0 * eps * integrate_interface(rxxxxt * rx**2 * d4_gap * L3, tg)
    cross3 = integrate_interface(rt * d1_gap * L_x, tg)
    cross_terms_max = max(abs(cross1), abs(cross2), abs(cross3))
    assert cross_terms_max == 0.0, "chi == omega cross terms must vanish identically"

    bdry_T = integrate_interface(A + B_term, tg)

    # LHS: centered difference of E_bar plus D_bar at the midpoint
    e_prev = model_energy(u_prev, rho_prev, eps, cutoff, grids)
    e_next = model_energy(u_next, rho_next, eps, cutoff, grids)
    dE_dt = (e_next - e_prev) / (2.0 * dt)

    unn_up = d_normal2(u_c, grids.normal, side="above")
    unn_lo = d_normal2(u_c, grids.normal, side="below")
    D_bar = integrate_bulk(u_t**2 + ux**2 + uxx**2, grids)
    D_bar += integrate_bulk_sided(
        a * un_up**2 + 2.0 * a * uxn_up**2 + (a * unn_up) ** 2,
        a * un_lo**2 + 2.0 * a * uxn_lo**2 + (a * unn_lo) ** 2,
        grids,
    )
    D_bar += 2.0 * integrate_interface((rxt**2 + eps * rxxxt**2) * L, tg)

    lhs = dE_dt + D_bar
    rhs = bulk_P + bulk_R - (bdry_Q + bdry_S + bdry_T)
    n_nodes = grids.tangential.n_x * grids.normal.n_z + grids.tangential.n_x
    floor = IDENTITY_FLOOR_PER_NODE * n_nodes
    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + floor)
    return IdentityReport(t=float(t_c), lhs=float(lhs), rhs=float(rhs),
                          residual=float(residual), dE_dt=float(dE_dt),
                          D_bar=float(D_bar), bulk_P=float(bulk_P),
                          bulk_R=float(bulk_R), bdry_Q=float(bdry_Q),
                          bdry_S=float(bdry_S), bdry_T=float(bdry_T),
                          cross_terms_max=float(cross_terms_max))
