"""Refinement-study verification suites: identity, mms, conservation, norms.

Each suite runs two resolution levels (or a seeded sample), prints the
observed orders/bounds, and reports pass/fail against its threshold.
These are the same studies the acceptance tests run; the CLI exposes
them via the ``verify`` verb.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import Scenario, build_initial_data
from .functionals import equivalence_constant, evaluate_functionals
from .grids import band_limited
from .identity import identity_residual_k0
from .oracles import ManufacturedProblem
from .stepper import SolverConfig, make_level, run


NORMS_AMPLITUDE = 0.2  # of each band-limited part of the norm suite's states


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list

    def report(self):
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join([f"[{verdict}] suite={self.name}"] + [f"  {s}" for s in self.lines])


# Canonical single-mode relaxation scenario.  The small temperature mass
# (profile sin^2(pi z), compatible with both boundary conditions) breaks the
# sign symmetry of the bare sine perturbation; without it the conserved
# quantity is invariant to rounding level and its per-step drift cannot be
# distinguished from float64 noise, let alone refined.
DECAY_K1 = Scenario(name="decay-k1", rho_modes=((1, 1e-3),), u_init="compatible",
                    u_mass=1e-4, t_end=2.0)


def suite_identity():
    """Identity residual at t = 0.1 of runs to t = 0.2 under one (dt, dx, dz) halving.

    Uses the trapezoidal scheme: the identity is exact only on true
    trajectories, so the O(dt) defect of backward Euler would swamp the
    cubically small remainder signal of the decay scenario.  With theta=1/2
    the defect is O(dt^2) and the measured residual refines cleanly.
    """
    eps, t_star, t_end = 1e-4, 0.1, 0.2
    levels = [
        SolverConfig(epsilon=eps, dt=2e-3, n_x=64, n_z=129, theta=0.5),
        SolverConfig(epsilon=eps, dt=1e-3, n_x=128, n_z=257, theta=0.5),
    ]
    residuals = []
    lines = []
    for cfg in levels:
        u0, rho0 = build_initial_data(DECAY_K1, cfg)
        states = [(0.0, u0, rho0)]
        run(u0, rho0, cfg, t_end, compute_identity=False,
            callbacks=(lambda state, report: states.append((state.t, state.u, state.rho)),))
        times = np.array([s[0] for s in states])
        j = int(np.argmin(np.abs(times - t_star)))
        window = [make_level(*state, cfg) for state in states[j - 1 : j + 2]]
        rep = identity_residual_k0(window, cfg)
        residuals.append(rep.residual)
        lines.append(
            f"dt={cfg.dt:g} n_x={cfg.n_x} n_z={cfg.n_z}: residual={rep.residual:.3e}")
    ratio = residuals[0] / residuals[1] if residuals[1] > 0 else np.inf
    order = np.log2(ratio) if np.isfinite(ratio) and ratio > 0 else np.inf
    lines.append(f"reduction factor={ratio:.2f} (observed order={order:.2f}), need >= 1.8")
    return SuiteResult("identity", ratio >= 1.8, lines)


def _mms_error(cfg, t_end):
    problem = ManufacturedProblem(cfg.grids(), cfg.cutoff(), cfg.epsilon)
    u0, rho0 = problem.initial_data()
    result = run(u0, rho0, cfg, t_end, forcing=problem, compute_identity=False)
    u_err = np.abs(result.state.u - problem.u_exact(result.state.t)).max()
    r_err = np.abs(result.state.rho - problem.rho_exact(result.state.t)).max()
    return u_err + r_err


def suite_mms():
    """Manufactured-solution orders: >= 1 in dt, >= 1.8 in dz.

    The time study runs the trapezoidal scheme on a fine z grid so the
    measured slope is the temporal one.  (Backward Euler's error constant
    has a negative second-order correction here: its one-level observed
    order creeps up to 1 from below, ~0.95 at these steps.)
    """
    lines = []
    eps = 1e-3
    base = SolverConfig(epsilon=eps, n_x=32, n_z=513, dt=0.1, theta=0.5)
    errs_t = [_mms_error(dataclasses.replace(base, dt=dt), 0.4) for dt in (0.1, 0.05)]
    order_t = np.log2(errs_t[0] / errs_t[1])
    lines.append(f"time study (theta=1/2, n_z=513): errors {errs_t[0]:.3e} -> "
                 f"{errs_t[1]:.3e}, order={order_t:.2f} (need >= 1)")

    base_z = SolverConfig(epsilon=eps, n_x=32, dt=1e-3)
    errs_z = [_mms_error(dataclasses.replace(base_z, n_z=nz), 0.5) for nz in (17, 33)]
    order_z = np.log2(errs_z[0] / errs_z[1])
    lines.append(f"z study (dt=1e-3): errors {errs_z[0]:.3e} -> {errs_z[1]:.3e}, "
                 f"order={order_z:.2f} (need >= 1.8)")
    return SuiteResult("mms", order_t >= 1.0 and order_z >= 1.8, lines)


def suite_conservation():
    """Per-step conservation residual to t = 0.25 and its (dt, dz) refinement order."""
    levels = [
        SolverConfig(epsilon=0.0, dt=1e-3, n_x=64, n_z=65),
        SolverConfig(epsilon=0.0, dt=5e-4, n_x=64, n_z=129),
    ]
    maxima = []
    lines = []
    for cfg in levels:
        u0, rho0 = build_initial_data(DECAY_K1, cfg)
        result = run(u0, rho0, cfg, 0.25, compute_identity=False)
        worst = max(r.cons_residual for r in result.reports[1:])
        maxima.append(worst)
        lines.append(f"dt={cfg.dt:g} n_z={cfg.n_z}: max residual={worst:.3e}")
    ratio = maxima[0] / maxima[1] if maxima[1] > 0 else np.inf
    lines.append(f"bound at level 0: {maxima[0]:.3e} (need <= 1e-6); "
                 f"reduction factor={ratio:.2f} (need >= 1.8)")
    return SuiteResult("conservation", maxima[0] <= 1e-6 and ratio >= 1.8, lines)


def random_state_history(rng, grids):
    """Synthetic smooth-in-time history for norm sampling, three entries 1e-2 apart.

    Linear path through two band-limited snapshots: quotients of order 1
    are exact and higher quotients vanish, which is all k_diag = 1 needs.
    """
    tg = grids.tangential
    z = grids.normal.nodes[None, :]
    rho_a = band_limited(rng, tg, NORMS_AMPLITUDE)
    rho_b = band_limited(rng, tg, NORMS_AMPLITUDE)
    u_a = (band_limited(rng, tg, NORMS_AMPLITUDE)[:, None] * np.cos(np.pi * z)
           + band_limited(rng, tg, NORMS_AMPLITUDE)[:, None] * z**2)
    u_b = (band_limited(rng, tg, NORMS_AMPLITUDE)[:, None] * np.sin(0.5 * np.pi * z)
           + band_limited(rng, tg, NORMS_AMPLITUDE)[:, None])
    times = [j * 1e-2 for j in range(3)]
    us = [u_a + t * u_b for t in times]
    rhos = [rho_a + t * rho_b for t in times]
    return times, us, rhos


def suite_norms():
    """Weighted/unweighted norm ratios against the predicted bracket [1/C, C]."""
    n_samples, eps = 50, 1e-2  # states seeded 0 .. n_samples - 1
    cfg = SolverConfig(epsilon=eps, n_x=32, n_z=33, k_diag=1)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    worst_margin = np.inf
    failures = 0
    for i in range(n_samples):
        rng = np.random.default_rng(i)
        times, us, rhos = random_state_history(rng, grids)
        f = evaluate_functionals(
            [make_level(t, u, rho, cfg) for t, u, rho in zip(times, us, rhos)], cfg)
        C_E = equivalence_constant(rhos[-1], cutoff, kind="E")
        C_D = equivalence_constant(rhos[-1], cutoff, kind="D")
        for val, sob, C in ((f.E_eps, f.sobolev_E, C_E), (f.D_eps, f.sobolev_D, C_D)):
            if sob <= 0:
                continue
            ratio = val / sob
            margin = min(C - ratio, ratio - 1.0 / C)
            worst_margin = min(worst_margin, margin)
            if not (1.0 / C <= ratio <= C):
                failures += 1
    lines = [f"{n_samples} seeded states, eps={eps:g}, amplitude={NORMS_AMPLITUDE:g}",
             f"violations={failures}, worst margin to [1/C, C]={worst_margin:.3e}"]
    return SuiteResult("norms", failures == 0, lines)


SUITES = {
    "identity": suite_identity,
    "mms": suite_mms,
    "conservation": suite_conservation,
    "norms": suite_norms,
}
