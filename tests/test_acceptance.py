"""Acceptance gate: the ten headline guarantees, one verdict line each.

Each test prints a live ``[PASS]/[FAIL] <criterion>: <measurement>`` line
(bypassing capture) and then asserts, so a plain ``pytest -v`` run shows
the full scorecard.  Numbered test names keep the execution order stable.
"""
from dataclasses import replace

import numpy as np
import pytest

from stefansim.config import build_initial_data, parse_config
from stefansim.functionals import decay_fit, i_psi, i_psi_lower_bound
from stefansim.grids import TangentialGrid, band_limited
from stefansim.oracles import linearized_spectrum
from stefansim.stepper import SolverConfig, run
from stefansim.verify import (
    DECAY_K1,
    suite_conservation,
    suite_identity,
    suite_mms,
    suite_norms,
)

# the slow end-to-end criteria; `-m "not acceptance"` runs the rest
pytestmark = pytest.mark.acceptance

CFG = SolverConfig(epsilon=0.0, dt=1e-3, n_x=64, n_z=65, k_diag=0)
EPS_LEVELS = (1e-2, 1e-4, 0.0)


@pytest.fixture
def verdict(capsys):
    def report(ok, name, detail):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return report


@pytest.fixture(scope="module")
def decay_runs():
    """The canonical single-mode relaxation under three regularizations."""
    u0, rho0 = build_initial_data(DECAY_K1, CFG)
    return {eps: run(u0, rho0, replace(CFG, epsilon=eps), DECAY_K1.t_end,
                     compute_identity=False)
            for eps in EPS_LEVELS}


def test_criterion_01_flat_state_invariance(verdict):
    rho0 = np.full(CFG.n_x, 0.1)
    u0 = np.zeros(CFG.grids().shape)
    drift = 0.0

    def track(state, report):
        nonlocal drift
        drift = max(drift, np.abs(state.u).max() + np.abs(state.rho - 0.1).max())

    res = run(u0, rho0, CFG, 2.0, callbacks=(track,), compute_identity=False)
    steps = len(res.reports) - 1
    verdict(drift <= 1e-8 and steps == 2000, "flat-state invariance",
            f"sup drift over {steps} steps = {drift:.3e} (tol 1e-8)")


def test_criterion_02_interface_form_positivity(verdict):
    tg = TangentialGrid(64)
    worst_sign = np.inf
    worst_gap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        omega = band_limited(rng, tg, 0.5)
        psi = band_limited(rng, tg, 0.2)
        val = i_psi(omega, psi)
        low = i_psi_lower_bound(omega, psi)
        worst_sign = min(worst_sign, val - low)
        worst_gap = max(worst_gap, abs(val - low))
    ok = worst_sign >= -1e-10 and worst_gap <= 1e-10
    verdict(ok, "interface-form lower bound",
            f"100 seeds: min(I-lower) = {worst_sign:.2e}, "
            f"max |I-lower| = {worst_gap:.2e} (tol 1e-10)")


def test_criterion_03_conservation_refines(verdict):
    suite = suite_conservation()
    verdict(suite.passed, "conserved quantity", "; ".join(suite.lines[-1:]))


def test_criterion_04_energy_dissipation_bound(verdict, decay_runs):
    res = decay_runs[1e-4]
    e = np.array([r.E_eps for r in res.reports])
    d = np.array([r.D_eps for r in res.reports])
    steps = np.diff([r.t for r in res.reports])
    mono = bool(np.all(e[2:] <= e[1:-1] * (1.0 + 1e-6)))
    # E(t_J) + 1/2 sum_{j<=J} D(t_j) (t_j - t_{j-1}) stays below E(0) for every prefix
    budget = e[1:] + 0.5 * np.cumsum(d[1:] * steps)
    headroom = float((budget / e[0]).max())
    bounded = headroom <= 1.0 + 1e-3
    verdict(mono and bounded, "energy decay and dissipation budget",
            f"eps=1e-4: monotone={'yes' if mono else 'no'}, "
            f"max (E+int D/2)/E(0) = {headroom:.6f} (tol 1+1e-3)")


def test_criterion_05_decay_rate_matches_spectrum(verdict, decay_runs):
    res = decay_runs[0.0]
    times = np.array([r.t for r in res.reports])
    vals = np.array([r.E + r.rho_dev_L2**2 for r in res.reports])
    fit = decay_fit(times, vals)
    lam = linearized_spectrum(1, 201).leading.real
    target = 2.0 * abs(lam)
    gap = abs(fit.rate - target) / target
    ok = (not fit.degenerate) and fit.r_squared >= 0.999 and gap <= 0.10
    verdict(ok, "nonlinear decay rate vs dense linearization",
            f"fit {fit.rate:.5f} vs 2|lambda_1| {target:.5f}: "
            f"gap {100 * gap:.3f}% (tol 10%), R^2 = {fit.r_squared:.6f}")


def test_criterion_06_epsilon_continuation(verdict, decay_runs):
    series = {eps: np.array([r.E for r in decay_runs[eps].reports])
              for eps in EPS_LEVELS}

    def dist(a, b):
        n = min(series[a].size, series[b].size)
        return float(np.abs(series[a][:n] - series[b][:n]).max())

    d_hi = dist(1e-2, 1e-4)
    d_lo = dist(1e-4, 0.0)
    rel = d_lo / float(series[0.0].max())
    ok = d_lo < d_hi and rel <= 0.05
    verdict(ok, "vanishing-regularization continuation",
            f"sup|E| gaps {d_hi:.2e} (1e-2 vs 1e-4) -> {d_lo:.2e} (1e-4 vs 0), "
            f"relative {100 * rel:.4f}% (tol 5%)")


def test_criterion_07_identity_residual_refines(verdict):
    suite = suite_identity()
    verdict(suite.passed, "model-problem energy identity", "; ".join(suite.lines[-1:]))


def test_criterion_08_manufactured_convergence(verdict):
    suite = suite_mms()
    verdict(suite.passed, "manufactured-solution convergence",
            "; ".join(suite.lines[-2:]))


def test_criterion_09_norm_equivalence(verdict):
    suite = suite_norms()
    verdict(suite.passed, "weighted/unweighted norm equivalence",
            "; ".join(suite.lines[-1:]))


def test_criterion_10_steady_state_selection(verdict):
    scen = parse_config("configs/generic-mass.ini")
    u0, rho0 = build_initial_data(scen)
    res = run(u0, rho0, scen.solver, scen.t_end, compute_identity=False)
    gap = abs(float(res.state.rho.mean()) - res.steady_level)
    verdict(gap <= 1e-4, "conservation-selected steady level",
            f"|mean rho(t={scen.t_end:g}) - predicted| = {gap:.3e} (tol 1e-4)")
