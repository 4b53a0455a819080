"""Energy/dissipation functionals against closed-form quadrature references."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from stefansim.functionals import (
    EnergyNormK0,
    _quotients,
    decay_fit,
    dissipation_eps,
    energy_eps,
    equivalence_constant,
    evaluate_functionals,
    conservation_residual,
    conserved_quantity,
    i_psi,
    i_psi_lower_bound,
    sobolev_norms,
    state_energy_k0,
    steady_mean,
    uniform_step,
)
from stefansim.grids import (
    TangentialGrid,
    band_limited,
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
from stefansim.stepper import SolverConfig
from stefansim.transform import Cutoff, coefficients, norm_weights
from stefansim.verify import random_state_history

from conftest import levels, one_sided_normals

# Single-mode interface rho = delta sin x, u = 0, at diagnostic order 0:
# E = int delta^2 cos^2 x (1 + delta^2 cos^2 x)^{-1/2}
#   + int delta^2 sin^2 x (1 + delta^2 cos^2 x)^{-3/2}   over [0, 2 pi];
# the eps = 1 addition reproduces both terms once more (third and fourth
# derivatives of the sine cycle back), doubling the total.
DELTA = 0.2
E_REF = 0.24764908381560244
E_REF_EPS1 = 0.4952981676312048
# Two-entry history rho: 0.2 sin x -> 0.19 sin x over dt = 0.01, u = 0:
# D = 2 int cos^2 x (1 + 0.19^2 cos^2 x)^{-1/2}.
D_REF = 6.199996698632009


def test_energy_reference_values():
    cfg = SolverConfig(n_x=256, n_z=9, k_diag=0)
    x = cfg.grids().tangential.nodes
    single_mode = levels(cfg, [0.0], [np.zeros(cfg.grids().shape)], [DELTA * np.sin(x)])

    def integrand(x):
        c2 = np.cos(x) ** 2
        return (DELTA**2 * c2 / np.sqrt(1 + DELTA**2 * c2)
                + DELTA**2 * np.sin(x) ** 2 / (1 + DELTA**2 * c2) ** 1.5)

    quad_val, quad_err = quad(integrand, 0.0, 2 * np.pi, limit=200)
    assert quad_val == pytest.approx(E_REF, abs=10 * quad_err)
    assert energy_eps(single_mode, cfg) == pytest.approx(E_REF, rel=1e-13)
    assert energy_eps(single_mode, dataclasses.replace(cfg, epsilon=1.0)) == pytest.approx(
        E_REF_EPS1, rel=1e-13)


def test_dissipation_reference_value():
    cfg = SolverConfig(n_x=256, n_z=9, k_diag=0)
    x = cfg.grids().tangential.nodes
    u = np.zeros(cfg.grids().shape)
    history = levels(cfg, [0.0, 0.01], [u, u], [0.2 * np.sin(x), 0.19 * np.sin(x)])

    def integrand(x):
        return 2.0 * np.cos(x) ** 2 / np.sqrt(1 + 0.19**2 * np.cos(x) ** 2)

    quad_val, quad_err = quad(integrand, 0.0, 2 * np.pi, limit=200)
    assert quad_val == pytest.approx(D_REF, abs=10 * quad_err)
    assert dissipation_eps(history, cfg) == pytest.approx(D_REF, rel=1e-13)


# ------------------------------------------- shared-pass evaluator

def derivative_pairs(k_diag):
    """All (mu, s) with mu + 2s <= 2 k_diag, s-major order."""
    return [(mu, s) for s in range(k_diag + 1) for mu in range(2 * (k_diag - s) + 1)]


def raw_quotient(times, fields, s):
    """The s-th backward time quotient at the newest time of the aligned
    samples ``fields``, ``np.diff`` of order s of the raw arrays over dt^s;
    None where there are fewer than s + 1 samples."""
    if s >= len(fields):
        return None
    dt = times[1] - times[0] if s else 1.0
    return np.diff(np.stack(fields[len(fields) - s - 1:]), n=s, axis=0)[0] / dt**s


def dx(f, order):
    return d_tangential(f, order) if order else f


def sided_sum(above, below, grids):
    """Bulk quadrature of an integrand double-valued at z = 0: ``above`` on
    the rows z >= 0, ``below`` on the rows z <= 0 of two full arrays."""
    mid = grids.normal.i_mid
    return bulk_sum(np.stack((below[..., : mid + 1], above[..., mid:]), axis=-2), grids)


def reference_functionals(times, us, rhos, cfg):
    """The six functionals of the raw samples (t, u, rho), term by term from
    the public primitives: quotients by ``np.diff`` of the arrays, weights
    from ``norm_weights`` at the newest rho."""
    g, tg, eps = cfg.grids(), cfg.grids().tangential, cfg.epsilon
    psi = rhos[-1]
    a, bracket = norm_weights(psi, d_tangential(psi, 1), cfg.cutoff(), g)
    L = 1.0 / bracket

    def sided(above, below):
        return sided_sum(above, below, g)

    E = X = sob_E = sob_X = D = Y = sob_D = sob_Y = 0.0
    missing_E, missing_D = [], []
    for mu, s in derivative_pairs(cfg.k_diag):
        u, r = raw_quotient(times, us, s), raw_quotient(times, rhos, s)
        if u is None or r is None:
            missing_E.append((mu, s))
            missing_D.append((mu, s))
            continue
        w, v = dx(u, mu), dx(r, mu)
        wx = d_tangential(w, 1)
        up, lo = one_sided_normals(w, g.normal)
        vx, vxx, v3, v4 = (d_tangential(v, n) for n in (1, 2, 3, 4))
        E += (bulk_sum(w**2 + wx**2, g) + sided(a * up**2, a * lo**2)
              + interface_sum(vx**2 * L, tg) + i_psi(v, psi))
        X += interface_sum(v3**2 * L, tg) + i_psi(vxx, psi)
        sob_E += (bulk_sum(w**2 + wx**2, g) + sided(up**2, lo**2)
                  + interface_sum(vx**2 + vxx**2, tg))
        sob_X += interface_sum(v3**2 + v4**2, tg)
        u1, r1 = raw_quotient(times, us, s + 1), raw_quotient(times, rhos, s + 1)
        if u1 is None or r1 is None:
            missing_D.append((mu, s))
            continue
        wt, vt = dx(u1, mu), dx(r1, mu)
        wxx = d_tangential(w, 2)
        xn_up, xn_lo = d_tangential(up, 1), d_tangential(lo, 1)
        nn_up, nn_lo = one_sided_normals(w, g.normal, second_walls)
        vtx, vt3 = d_tangential(vt, 1), d_tangential(vt, 3)
        bulk = bulk_sum(wt**2 + wx**2 + wxx**2, g)
        D += (bulk + sided(a * up**2 + 2 * a * xn_up**2 + (a * nn_up) ** 2,
                           a * lo**2 + 2 * a * xn_lo**2 + (a * nn_lo) ** 2)
              + 2 * interface_sum(vtx**2 * L, tg))
        Y += 2 * interface_sum(vt3**2 * L, tg)
        sob_D += (bulk + sided(up**2 + 2 * xn_up**2 + nn_up**2,
                               lo**2 + 2 * xn_lo**2 + nn_lo**2)
                  + interface_sum(vtx**2, tg))
        sob_Y += interface_sum(vt3**2, tg)
    values = (E, D, E + eps * X, D + eps * Y, sob_E + eps * sob_X, sob_D + eps * sob_Y)
    missing = (missing_E, missing_D, missing_E, missing_D, missing_E, missing_D)
    return values, tuple(tuple(m) for m in missing)


def nyquist_mode(n_x):
    """The highest mode of an n_x-point grid, (-1)^j: odd d_x zero it, even
    ones keep it."""
    return np.cos(np.pi * np.arange(n_x))


@pytest.mark.parametrize("n_entries", [1, 2, 3, 4])
def test_evaluator_matches_term_by_term_reference(n_entries):
    check_evaluator_against_reference(n_entries, k_diag=2)


@pytest.mark.parametrize("n_entries", [1, 2])
def test_evaluator_matches_term_by_term_reference_at_order_0(n_entries):
    check_evaluator_against_reference(n_entries, k_diag=0)


def check_evaluator_against_reference(n_entries, k_diag):
    cfg = SolverConfig(epsilon=1e-3, n_x=32, n_z=33, k_diag=k_diag)
    grids = cfg.grids()
    rng = np.random.default_rng(7)
    tg, z = grids.tangential, grids.normal.nodes[None, :]
    rho_a, rho_b = band_limited(rng, tg, 0.1), band_limited(rng, tg, 0.05)
    u_a = (band_limited(rng, tg, 0.2)[:, None] * np.cos(np.pi * z)
           + band_limited(rng, tg, 0.1)[:, None] * np.abs(z))  # kink at z = 0
    u_b = (band_limited(rng, tg, 0.2)[:, None] * z**2
           + 1e-3 * nyquist_mode(tg.n_x)[:, None] * np.cos(np.pi * z))
    times = [0.01 * j for j in range(n_entries)]
    # curved in time, so quotients of every order are nonzero
    us = [u_a + np.sin(30 * t) * u_b for t in times]
    rhos = [rho_a + np.sin(20 * t) * rho_b + (10 * t) ** 3 * rho_a for t in times]
    history = levels(cfg, times, us, rhos)
    got = evaluate_functionals(history, cfg)
    values = (got.E, got.D, got.E_eps, got.D_eps, got.sobolev_E, got.sobolev_D)
    missings = (got.missing_E, got.missing_D) * 3  # in the order of values
    ref_values, ref_missing = reference_functionals(times, us, rhos, cfg)
    for value, got_missing, ref, missing in zip(values, missings, ref_values, ref_missing,
                                                strict=True):
        assert got_missing == missing
        assert value == pytest.approx(ref, rel=1e-13, abs=0.0 if ref else 1e-300)
    # I_psi equals its lower bound in one tangential dimension: both gaps
    # are roundoff on the scale of the largest form
    psi = rhos[-1]
    hessians = [dx(raw_quotient(times, rhos, s), mu) for mu, s in derivative_pairs(k_diag)
                if raw_quotient(times, rhos, s) is not None]
    scale = max(i_psi(v, psi) for v in hessians)
    ref_gap = min(i_psi(v, psi) - i_psi_lower_bound(v, psi) for v in hessians)
    assert abs(got.i_psi_min_gap) <= 1e-14 * scale
    assert abs(got.i_psi_min_gap - ref_gap) <= 1e-14 * scale
    assert energy_eps(history, cfg) == got.E_eps
    assert dissipation_eps(history, cfg) == got.D_eps
    assert sobolev_norms(history, cfg) == (got.sobolev_E, got.sobolev_D)


def _i_psi_form(oxx, L, px, h):
    """I_psi from the Hessian oxx, L = 1/<psi> and the slope px on a
    tangential grid of spacing h, summed as written: a formula independent
    of the package's ``_interface_weights``."""
    return float((oxx**2 * L - (oxx * px) ** 2 * L**3).sum() * h)


def half_strip_functionals(levels, cfg):
    """The six functionals and the missing terms of ``levels`` as the
    evaluator took them before its stencil sums: every a-weighted normal
    derivative by ``first_walls`` and ``second_walls`` on the ``halves`` of
    each quotient's rfft, inverse-transformed and summed with the
    quadrature weights one (mu, s) term at a time, and every interface
    term by its own sums."""
    dt = uniform_step([lv.t for lv in levels], "history")
    g, eps, k = cfg.grids(), cfg.epsilon, cfg.k_diag
    n, dz, tg, h = g.tangential.n_x, g.normal.dz, g.tangential, g.tangential.spacing
    px = levels[-1].rho_x
    a_psi, bracket = norm_weights(levels[-1].rho, px, cfg.cutoff(), g)
    a_h = halves(a_psi, g.normal)
    W = quadrature_weights(a_h.shape, g)
    aW, L = a_h * W, 1.0 / bracket
    u_hats = _quotients([lv.fields.hat for lv in levels], k + 2, dt)
    r_hats = _quotients([lv.rho_hat for lv in levels], k + 2, dt)

    def table(hat, terms):
        return dict(zip(terms, d_tangential_hats(hat, n, tuple(terms))))

    top = 5 if eps != 0.0 else 3
    E = X = sob_E = sob_X = D = Y = sob_D = sob_Y = 0.0
    missing_E, missing_D = [], []
    for s in range(k + 1):
        mus = range(2 * (k - s) + 1)
        if u_hats[s] is None:
            missing_E.extend((mu, s) for mu in mus)
            missing_D.extend((mu, s) for mu in mus)
            continue
        with_D = u_hats[s + 1] is not None
        u_h = halves(u_hats[s], g.normal)
        wn = table(first_walls(u_h, dz), [(mu,) for mu in mus] + [(mu, 1) for mu in mus])
        wnn = table(second_walls(u_h, dz), [(mu,) for mu in mus])
        v = table(r_hats[s], [(mu, j) for mu in mus for j in range(1, top)])
        for mu in mus:
            bulk = parseval_sum(power_spectrum(u_hats[s]), ((mu,), (mu, 1)), g)
            vx, vxx = v[mu, 1], v[mu, 2]
            E += (bulk + float(np.vdot(aW, wn[(mu,)] ** 2)) + interface_sum(vx**2 * L, tg)
                  + _i_psi_form(vxx, L, px, h))
            sob_E += bulk + float(np.vdot(W, wn[(mu,)] ** 2)) + interface_sum(vx**2 + vxx**2, tg)
            if eps != 0.0:
                v3, v4 = v[mu, 3], v[mu, 4]
                X += interface_sum(v3**2 * L, tg) + _i_psi_form(v4, L, px, h)
                sob_X += interface_sum(v3**2 + v4**2, tg)
            if not with_D:
                missing_D.append((mu, s))
                continue
            vt = table(r_hats[s + 1], [(mu, 1), (mu, 3)])
            first = wn[(mu,)] ** 2 + 2.0 * wn[mu, 1] ** 2
            wnn2 = wnn[(mu,)] ** 2
            bulk = (parseval_sum(power_spectrum(u_hats[s + 1]), ((mu,),), g)
                    + parseval_sum(power_spectrum(u_hats[s]), ((mu, 1), (mu, 2)), g))
            D += (bulk + float(np.vdot(aW, first)) + float(np.vdot(a_h * aW, wnn2))
                  + 2.0 * interface_sum(vt[mu, 1] ** 2 * L, tg))
            sob_D += bulk + float(np.vdot(W, first + wnn2)) + interface_sum(vt[mu, 1] ** 2, tg)
            Y += 2.0 * interface_sum(vt[mu, 3] ** 2 * L, tg)
            sob_Y += interface_sum(vt[mu, 3] ** 2, tg)
    values = (E, D, E + eps * X, D + eps * Y, sob_E + eps * sob_X, sob_D + eps * sob_Y)
    return values, (tuple(missing_E), tuple(missing_D))


def decaying_history(cfg, count):
    """``count`` levels, dt = 0.01 apart, of a smooth state that relaxes
    and oscillates in time, with a kink across z = 0 and Nyquist content."""
    grids = cfg.grids()
    rng = np.random.default_rng(11)
    tg, z = grids.tangential, grids.normal.nodes[None, :]
    u_a = (band_limited(rng, tg, 0.2)[:, None] * np.cos(np.pi * z)
           + band_limited(rng, tg, 0.1)[:, None] * np.abs(z))
    u_b = (band_limited(rng, tg, 0.2)[:, None] * z**2
           + 1e-3 * nyquist_mode(tg.n_x)[:, None] * np.cos(np.pi * z))
    rho_a, rho_b = band_limited(rng, tg, 0.1), band_limited(rng, tg, 0.05)
    times = [0.5 + 0.01 * j for j in range(count)]
    return levels(cfg, times,
                  [np.exp(-t) * u_a + np.cos(7 * t) * u_b for t in times],
                  [np.exp(-2 * t) * rho_a + np.sin(5 * t) * rho_b for t in times])


@pytest.mark.parametrize("eps", [0.0, 1e-4])
@pytest.mark.parametrize("k_diag", [0, 1, 2, 3])
def test_stencil_sums_match_the_half_strip_evaluator(k_diag, eps):
    # every history length up to k_diag + 2, so the rows with missing
    # terms too; E through sobolev_D within 1e-12 relative, the missing
    # terms identical
    cfg = SolverConfig(epsilon=eps, n_x=32, n_z=33, k_diag=k_diag)
    history = decaying_history(cfg, k_diag + 2)
    for count in range(1, k_diag + 3):
        window = history[-count:]
        got = evaluate_functionals(window, cfg)
        values = (got.E, got.D, got.E_eps, got.D_eps, got.sobolev_E, got.sobolev_D)
        ref_values, ref_missing = half_strip_functionals(window, cfg)
        assert (got.missing_E, got.missing_D) == ref_missing
        for value, ref in zip(values, ref_values, strict=True):
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0 if ref else 1e-300)


@pytest.mark.parametrize("k_diag", [0, 2])
def test_a_report_transforms_each_quotient_of_each_field_once(monkeypatch, k_diag):
    # no forward transform, and at most one batched inverse transform per
    # quotient of u (its bulk rows; u_0's row (0,) is the level's own u)
    # and per quotient of rho (its interface rows)
    cfg = SolverConfig(epsilon=1e-4, n_x=32, n_z=33, k_diag=k_diag)
    history = decaying_history(cfg, k_diag + 2)
    calls = {"rfft": [], "irfft": []}
    for name, record in calls.items():
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, _real=real, _record=record, **kw:
                            _record.append(np.ndim(a)) or _real(a, *args, **kw))
    for count in range(1, k_diag + 3):
        for record in calls.values():
            record.clear()
        evaluate_functionals(history[-count:], cfg)
        bulk = sum(ndim == 3 for ndim in calls["irfft"])  # (rows, modes, n_z)
        interface = sum(ndim == 2 for ndim in calls["irfft"])  # (rows, modes)
        assert calls["rfft"] == [] and bulk + interface == len(calls["irfft"])
        assert interface == count  # the quotients 0 .. count - 1 of rho
        assert bulk == min(count, k_diag + 1) - (k_diag == 0 and count == 1)


@pytest.mark.parametrize("first", [1e-3, 0.01, 7.0])
def test_uniform_step_keeps_the_allclose_rule(first):
    # |s - s0| <= 1e-15 + 1e-9 |s0| passes and returns s0 as a float; a
    # spacing just outside raises naming the history
    bound = 1e-15 + 1e-9 * first
    inside = [0.0, first, 2 * first + 0.9 * bound, 3 * first]
    assert np.allclose(np.diff(inside), first, rtol=1e-9, atol=1e-15)
    step = uniform_step(inside, "history")
    assert type(step) is float and step == first
    for off in (1.1 * bound, -1.1 * bound):
        outside = [0.0, first, 2 * first + off]
        assert not np.allclose(np.diff(outside), first, rtol=1e-9, atol=1e-15)
        with pytest.raises(ValueError, match="^history must be uniformly spaced in time$"):
            uniform_step(outside, "history")
    assert uniform_step([5.0], "history") is None and uniform_step([], "history") is None


# ------------------------------------------------- fixed-point norm

def reference_state_energy_k0(u, rho, psi, eps, cutoff, grids):
    """E_eps of (u, rho) at order 0 with the weights of psi, every term in
    real space from the public primitives."""
    tg = grids.tangential
    coef = coefficients(psi, np.zeros_like(psi), cutoff, grids,
                        rho_x=d_tangential(psi, 1), rho_xx=d_tangential(psi, 2))
    a, L = coef.a, 1.0 / coef.bracket
    up, lo = one_sided_normals(u, grids.normal)
    vx, vxx, v3 = (d_tangential(rho, n) for n in (1, 2, 3))
    E = (bulk_sum(u**2 + d_tangential(u, 1) ** 2, grids)
         + sided_sum(a * up**2, a * lo**2, grids)
         + interface_sum(vx**2 * L, tg) + i_psi(rho, psi))
    X = interface_sum(v3**2 * L, tg) + i_psi(vxx, psi)
    return E + eps * X


@pytest.mark.parametrize("n_x, n_z", [(64, 65), (32, 257)])
@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_state_energy_k0_matches_real_space_reference(n_x, n_z, eps):
    cfg = SolverConfig(epsilon=eps, n_x=n_x, n_z=n_z)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    rng = np.random.default_rng(3)
    tg, z = grids.tangential, grids.normal.nodes[None, :]
    psi = band_limited(rng, tg, 0.1)
    # Nyquist content in both fields: u^2 keeps it, u_x^2 and rho_x drop it;
    # u has a kink at z = 0 and a part odd in z
    u = (band_limited(rng, tg, 0.2)[:, None] * np.cos(np.pi * z)
         + band_limited(rng, tg, 0.1)[:, None] * np.abs(z)
         + band_limited(rng, tg, 0.1)[:, None] * np.sin(np.pi * z / 2)
         + 0.05 * nyquist_mode(n_x)[:, None] * (1.0 - z**2))
    rho = band_limited(rng, tg, 0.05) + 0.01 * nyquist_mode(n_x)
    psi_x = d_tangential(psi, 1)
    coef = coefficients(psi, np.zeros_like(psi), cutoff, grids,
                        rho_x=d_tangential(psi, 1), rho_xx=d_tangential(psi, 2))
    norm = EnergyNormK0(psi_x, coef.a, coef.bracket, cfg)
    u_hat = np.fft.rfft(u, axis=0)
    got = state_energy_k0(u, u_hat, np.fft.rfft(rho), norm)
    ref = reference_state_energy_k0(u, rho, psi, eps, cutoff, grids)
    assert got == pytest.approx(ref, rel=1e-13)
    # the bulk-only form of the warm exit rule: rho = 0, its terms skipped
    bulk_only = state_energy_k0(u, u_hat, None, norm)
    assert bulk_only == pytest.approx(
        reference_state_energy_k0(u, np.zeros(n_x), psi, eps, cutoff, grids), rel=1e-13)
    assert bulk_only == state_energy_k0(u, u_hat, np.zeros(n_x // 2 + 1, dtype=complex), norm)


# ------------------------------------------------------ interface form

def test_i_psi_flat_weight_is_plain_hessian_norm():
    x = TangentialGrid(128).nodes
    omega = np.sin(2 * x)
    assert i_psi(omega, np.zeros(128)) == pytest.approx(16 * np.pi, rel=1e-13)


@given(seed=st.integers(0, 10**6))
def test_i_psi_equals_lower_bound_in_one_dimension(seed):
    rng = np.random.default_rng(seed)
    tg = TangentialGrid(64)
    omega = band_limited(rng, tg, 0.5)
    psi = band_limited(rng, tg, 0.2)
    val = i_psi(omega, psi)
    low = i_psi_lower_bound(omega, psi)
    assert val >= low - 1e-12
    assert abs(val - low) < 1e-12 * max(1.0, abs(val))


def test_i_psi_vertical_shift_invariance():
    x = TangentialGrid(64).nodes
    omega = 0.3 * np.sin(3 * x)
    psi = 0.1 * np.cos(x)
    assert i_psi(omega, psi + 5.0) == pytest.approx(i_psi(omega, psi), rel=1e-14)


# -------------------------------------------------- scaling/monotonicity

def test_state_energy_quadratic_scaling(small_cfg, small_grids, small_cutoff, smooth_state):
    u, rho = smooth_state
    psi = rho.copy()
    coef = coefficients(psi, np.zeros_like(psi), small_cutoff, small_grids,
                        rho_x=d_tangential(psi, 1), rho_xx=d_tangential(psi, 2))
    psi_x = d_tangential(psi, 1)
    norm = EnergyNormK0(psi_x, coef.a, coef.bracket, dataclasses.replace(small_cfg, epsilon=0.5))

    def energy(u, rho):
        return state_energy_k0(u, np.fft.rfft(u, axis=0), np.fft.rfft(rho), norm)

    base = energy(u, rho)
    scaled = energy(2 * u, 2 * rho)
    assert scaled == pytest.approx(4.0 * base, rel=1e-12)
    assert energy(0 * u, 0 * rho) == 0.0


@given(seed=st.integers(0, 10**6))
def test_energy_dissipation_monotone_in_eps(seed):
    cfg = SolverConfig(n_x=32, n_z=33, k_diag=1)
    rng = np.random.default_rng(seed)
    times, us, rhos = random_state_history(rng, cfg.grids())
    history = levels(cfg, times, us, rhos)
    cfgs = [dataclasses.replace(cfg, epsilon=e) for e in (0.0, 1e-4, 1e-2, 1.0)]
    e_vals = [energy_eps(history, c) for c in cfgs]
    d_vals = [dissipation_eps(history, c) for c in cfgs]
    assert all(a <= b + 1e-12 for a, b in zip(e_vals, e_vals[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(d_vals, d_vals[1:]))
    assert e_vals[0] > 0 and d_vals[0] > 0


def test_sobolev_norms_of_zero_state():
    cfg = SolverConfig(epsilon=0.5, n_x=16, n_z=17, k_diag=1)
    zeros_u = [np.zeros(cfg.grids().shape)] * 3
    zeros_r = [np.zeros(16)] * 3
    history = levels(cfg, [0.0, 0.1, 0.2], zeros_u, zeros_r)
    sob_e, sob_d = sobolev_norms(history, cfg)
    assert sob_e == 0.0 and sob_d == 0.0
    f = evaluate_functionals(history, cfg)
    assert f.missing_E == () and f.missing_D == ()


# ----------------------------------------------------- conserved quantity

def test_conserved_quantity_and_residual(small_cfg, small_grids, small_cutoff):
    n_x = small_grids.tangential.n_x
    rho = np.full(n_x, 0.05)
    u0 = np.zeros(small_grids.shape)
    assert conserved_quantity(u0, rho, small_cutoff, small_grids) == pytest.approx(
        -0.05 * 2 * np.pi, rel=1e-13)
    old, new = levels(small_cfg, [0.0, 0.0], [u0, u0], [rho, rho + 0.01])
    assert conservation_residual(old, new) == pytest.approx(0.01 * 2 * np.pi, rel=1e-12)
    assert conservation_residual(old, old) == 0.0


def test_steady_mean_reference_cases(small_cfg, small_grids):
    n_x = small_grids.tangential.n_x
    x = small_grids.tangential.nodes
    rho0 = 0.03 * np.sin(x) + 0.07
    u0 = np.zeros(small_grids.shape)
    initial, = levels(small_cfg, [0.0], [u0], [rho0])
    assert steady_mean(initial) == pytest.approx(0.07, rel=1e-12)
    u_const = np.full(small_grids.shape, 0.2)
    initial, = levels(small_cfg, [0.0], [u_const], [np.zeros(n_x)])
    assert steady_mean(initial) == pytest.approx(-0.4, rel=1e-12)


# ------------------------------------------------------------- decay fit

def test_decay_fit_exact_exponential():
    t = np.linspace(0.0, 2.0, 40)
    fit = decay_fit(t, 3.0 * np.exp(-2.0 * t))
    assert not fit.degenerate
    assert fit.rate == pytest.approx(2.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_degenerate_and_invalid():
    t = np.linspace(0.0, 1.0, 10)
    assert decay_fit(t, np.zeros(10)).degenerate
    assert decay_fit(t, np.full(10, 0.3)).degenerate
    with pytest.raises(ValueError):
        decay_fit([0.0, 0.1, 0.2], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError):
        decay_fit(t, np.ones(9))


# ------------------------------------------------------ history quotients

def test_derivative_pairs_family():
    assert derivative_pairs(0) == [(0, 0)]
    assert derivative_pairs(1) == [(0, 0), (1, 0), (2, 0), (0, 1)]
    for k in range(4):
        assert len(derivative_pairs(k)) == (k + 1) ** 2
        assert all(mu + 2 * s <= 2 * k for mu, s in derivative_pairs(k))


def test_stack_validation():
    cfg = SolverConfig(n_x=16, n_z=9, k_diag=1)
    u = np.zeros(cfg.grids().shape)
    r = np.zeros(16)
    with pytest.raises(ValueError):
        evaluate_functionals([], cfg)
    with pytest.raises(ValueError):
        evaluate_functionals(levels(cfg, [0.0, 0.1, 0.35], [u] * 3, [r] * 3), cfg)


def test_stack_quotients_and_missing_flags():
    cfg = SolverConfig(n_x=16, n_z=9, k_diag=1)
    x = cfg.grids().tangential.nodes
    u = np.ones(cfg.grids().shape)
    history = levels(cfg, [0.0], [u], [0.01 * np.sin(x)])
    u0, u1 = _quotients([lv.u for lv in history], 2, None)
    assert np.array_equal(u0, u)
    assert u1 is None
    f = evaluate_functionals(history, cfg)
    assert f.missing_E == ((0, 1),)
    assert energy_eps(history, cfg) > 0.0
    assert set(f.missing_D) == {(0, 0), (1, 0), (2, 0), (0, 1)}
    assert dissipation_eps(history, cfg) == 0.0


def test_stack_quotients_linear_history_exact():
    # linear-in-time history: first quotient is the slope, second vanishes
    cfg = SolverConfig(n_x=16, n_z=9)
    x = cfg.grids().tangential.nodes
    slope_u = np.cos(x)[:, None] * np.ones(cfg.grids().shape[1])
    times = [0.0, 0.1, 0.2]
    us = [t * slope_u for t in times]
    rhos = [t * 0.05 * np.sin(x) for t in times]
    history = levels(cfg, times, us, rhos)
    _, u1, u2 = _quotients([lv.u for lv in history], 3, 0.1)
    assert np.abs(u1 - slope_u).max() < 1e-13
    assert np.abs(_quotients([lv.rho for lv in history], 2, 0.1)[1] - 0.05 * np.sin(x)).max() < 1e-13
    assert np.abs(u2).max() < 1e-12


# ---------------------------------------------- norm equivalence constant

def test_equivalence_constant_reference_cases():
    cutoff = Cutoff()
    flat = np.zeros(32)
    assert equivalence_constant(flat, cutoff, kind="E") == 1.0
    assert equivalence_constant(flat, cutoff, kind="D") == 2.0
    too_tall = np.full(32, 0.5)  # max_slope * 0.5 > 1: bounds blow up
    assert equivalence_constant(too_tall, cutoff, kind="E") == np.inf
    with pytest.raises(ValueError):
        equivalence_constant(flat, cutoff, kind="Q")


def test_equivalence_constant_grows_with_amplitude():
    cutoff = Cutoff()
    x = TangentialGrid(64).nodes
    c_small = equivalence_constant(0.01 * np.sin(x), cutoff, kind="E")
    c_large = equivalence_constant(0.2 * np.sin(x), cutoff, kind="E")
    assert 1.0 < c_small < c_large < np.inf
