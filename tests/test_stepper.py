"""Time stepping: solver config, temperature solve, interface update,
per-step fixed point, and the run driver."""
import numpy as np
import pytest

from stefansim import stepper
from stefansim.errors import FixedPointError, LinearSolveError, NonFiniteFieldError
from stefansim.stepper import (
    SolverConfig,
    State,
    compatible_initial_temperature,
    fixed_point_step,
    interface_step,
    run,
    run_epsilon_schedule,
    solve_regularized,
    temperature_step,
)
from stefansim.transform import curvature


# --------------------------------------------------------------- config

def test_solver_config_validation():
    for kwargs in (dict(epsilon=-1.0), dict(dt=0.0), dict(dt=-1e-3),
                   dict(theta=0.4), dict(theta=1.1), dict(k_diag=4),
                   dict(k_diag=-1), dict(alpha=0.4), dict(alpha=0.0)):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
    cfg = SolverConfig(n_x=16, n_z=9, alpha=0.2)
    assert cfg.grids().shape == (16, 9)
    assert cfg.cutoff().alpha == 0.2
    # grid validation propagates through the config helpers
    with pytest.raises(ValueError):
        SolverConfig(n_x=10, n_z=8).grids()


# ---------------------------------------------------- temperature solve

def dense_flat_reference(u_line, dt, n_z):
    """Dense solve of the flat-interface backward-Euler z-line system."""
    dz = 2.0 / (n_z - 1)
    mid = (n_z - 1) // 2
    M = np.zeros((n_z, n_z))
    rhs = u_line / dt
    for i in range(n_z):
        if i == mid:
            M[i, i] = 1.0
            rhs[i] = 0.0  # curvature of the flat interface
        elif i in (0, n_z - 1):
            M[i, i] = 1.0 / dt + 2.0 / dz**2
            M[i, 1 if i == 0 else n_z - 2] = -2.0 / dz**2  # mirror ghost
        else:
            M[i, i] = 1.0 / dt + 2.0 / dz**2
            M[i, i - 1] = M[i, i + 1] = -1.0 / dz**2
    return np.linalg.solve(M, rhs)


def test_temperature_step_matches_dense_flat_solve():
    cfg = SolverConfig(dt=1e-3, n_x=8, n_z=17)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    z = grids.normal.nodes
    u_old = np.broadcast_to(np.cos(np.pi * z)[None, :], grids.shape).copy()
    zeros = np.zeros(8)
    u_new, residual, lag_iters, sigma = temperature_step(
        zeros, zeros, u_old, cfg, grids, cutoff)
    assert residual <= cfg.lin_tol
    assert sigma is None
    dense = dense_flat_reference(np.cos(np.pi * z), cfg.dt, 17)
    assert np.abs(u_new - dense[None, :]).max() < 1e-12


def dense_half_strip_solve(a_line, k, inv_dt, theta, dz, rhs, dirichlet):
    """Dense solve of one mode's half-strip system, interface row first:
    a Dirichlet row, centered interior rows and a mirror-ghost wall row.

    The Dirichlet row is scaled to the size of its neighbour; at unit
    size, partial pivoting swaps it with row 1 and loses about four digits
    at n_z = 257.
    """
    n = a_line.size
    M = np.zeros((n, n))
    for j in range(1, n):
        off = theta * a_line[j] / dz**2
        M[j, j] = inv_dt + theta * k**2 + 2.0 * off
        M[j, j - 1] = -2.0 * off if j == n - 1 else -off
        if j < n - 1:
            M[j, j + 1] = -off
    M[0, 0] = M[1, 1]
    b = np.array(rhs, dtype=complex)
    b[0] = M[0, 0] * dirichlet
    return np.linalg.solve(M, b)


@pytest.mark.parametrize("n_z", [17, 257])
@pytest.mark.parametrize("theta, inv_dt", [(1.0, 1e3), (0.5, 1e2), (1.0, 0.0)])
def test_bulk_solve_matches_dense_half_strips(n_z, theta, inv_dt):
    from stefansim.stepper import _BulkLU
    from stefansim.transform import coefficients

    cfg = SolverConfig(n_x=16, n_z=n_z, theta=theta)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    x = grids.tangential.nodes
    rho = 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
    a_mean = coefficients(rho, np.zeros_like(rho), cutoff, grids).a.mean(axis=0)
    assert np.ptp(a_mean) > 1e-3  # the non-flat interface makes a_mean vary in z
    rng = np.random.default_rng(7)
    rhs_hat = np.fft.rfft(rng.standard_normal(grids.shape), axis=0)
    dir_hat = np.fft.rfft(rng.standard_normal(cfg.n_x))

    bulk = _BulkLU(a_mean, inv_dt, theta, grids)
    x_hat = bulk.solve(rhs_hat, dir_hat)
    mid, dz = grids.normal.i_mid, grids.normal.dz
    halves = (np.arange(mid, n_z), np.arange(mid, -1, -1))  # interface outward
    sigma_ref = np.zeros(cfg.n_x // 2 + 1)
    for k in range(cfg.n_x // 2 + 1):
        for rows in halves:
            ref = dense_half_strip_solve(a_mean[rows], k, inv_dt, theta, dz,
                                         rhs_hat[k, rows], dir_hat[k])
            err = np.abs(x_hat[k, rows] - ref).max() / np.abs(ref).max()
            assert err < 1e-12, (k, err)
            unit = dense_half_strip_solve(a_mean[rows], k, inv_dt, theta, dz,
                                          np.zeros(rows.size), 1.0).real
            sigma_ref[k] += (3.0 - 4.0 * unit[1] + unit[2]) / (2.0 * dz)
    sigma = bulk.jump_response()
    assert np.abs(sigma - sigma_ref).max() <= 1e-12 * np.abs(sigma_ref).max()


def test_temperature_step_far_field_continuum():
    # away from the interface-induced boundary layer the step agrees with
    # the exact backward-Euler heat decay cos(pi z) -> cos(pi z)/(1+pi^2 dt)
    errs = []
    for n_z in (17, 33):
        cfg = SolverConfig(dt=1e-3, n_x=8, n_z=n_z)
        grids = cfg.grids()
        z = grids.normal.nodes
        u_old = np.broadcast_to(np.cos(np.pi * z)[None, :], grids.shape).copy()
        u_new, *_ = temperature_step(np.zeros(8), np.zeros(8), u_old,
                                     cfg, grids, cfg.cutoff())
        far = np.abs(z) >= 0.5
        exact = np.cos(np.pi * z[far]) / (1.0 + np.pi**2 * cfg.dt)
        errs.append(np.abs(u_new[:, far] - exact[None, :]).max())
    assert errs[0] < 1e-3
    assert errs[1] < errs[0]


def test_temperature_step_zero_state_is_exact(small_cfg, small_grids, small_cutoff):
    zeros = np.zeros(small_cfg.n_x)
    u_new, residual, lag_iters, _ = temperature_step(
        zeros, zeros, np.zeros(small_grids.shape), small_cfg, small_grids, small_cutoff)
    assert np.all(u_new == 0.0)
    assert residual == 0.0 and lag_iters == 1


def test_jump_response_is_positive_and_monotone(small_cfg, small_grids, small_cutoff):
    zeros = np.zeros(small_cfg.n_x)
    *_, sigma = temperature_step(zeros, zeros, np.zeros(small_grids.shape),
                                 small_cfg, small_grids, small_cutoff,
                                 return_jump_response=True)
    assert sigma.shape == (small_cfg.n_x // 2 + 1,)
    assert np.all(sigma > 0)
    assert np.all(np.diff(sigma) > 0)  # stiffer response at higher wavenumber


def test_compatible_initial_temperature(small_cfg, small_grids, small_cutoff):
    x = small_grids.tangential.nodes
    rho0 = 0.05 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, small_cfg, small_grids, small_cutoff)
    mid = small_grids.normal.i_mid
    assert np.abs(u0[:, mid] - curvature(rho0)).max() < 1e-12
    # already steady: re-solving from u0 returns u0
    u_re, *_ = temperature_step(rho0, np.zeros_like(rho0), u0, small_cfg,
                                small_grids, small_cutoff, inv_dt=0.0)
    assert np.abs(u_re - u0).max() < 1e-12
    # the steady solve ignores cfg.theta (no old level exists at t = 0)
    from dataclasses import replace
    u0_cn = compatible_initial_temperature(
        rho0, replace(small_cfg, theta=0.5), small_grids, small_cutoff)
    assert np.array_equal(u0, u0_cn)


def test_temperature_step_raises_when_lag_loop_stalls(small_grids, small_cutoff):
    cfg = SolverConfig(dt=2.0, n_x=32, n_z=33, lin_max_iter=8)
    x = small_grids.tangential.nodes
    rho = 0.1 * np.sin(x)
    u_old = np.zeros(small_grids.shape)
    with pytest.raises(LinearSolveError) as exc:
        temperature_step(rho, np.zeros(32), u_old, cfg, small_grids, small_cutoff)
    assert exc.value.residual > cfg.lin_tol


# ------------------------------------------------------ interface update

def test_solve_regularized_per_mode():
    from stefansim.grids import TangentialGrid

    xs = TangentialGrid(64).nodes
    assert np.abs(solve_regularized(np.sin(xs), 1.0, 64) - 0.5 * np.sin(xs)).max() < 1e-14
    assert np.abs(solve_regularized(np.sin(2 * xs), 1.0, 64)
                  - np.sin(2 * xs) / 17.0).max() < 1e-14
    f = 0.3 * np.cos(xs) + 0.1
    assert np.abs(solve_regularized(f, 0.0, 64) - f).max() < 1e-14
    assert np.abs(solve_regularized(np.full(64, 0.7), 5.0, 64) - 0.7).max() < 1e-14


def test_interface_step_explicit_forms(small_grids):
    n_x = small_grids.tangential.n_x
    x = small_grids.tangential.nodes
    u_zero = np.zeros(small_grids.shape)
    zeros = np.zeros(n_x)
    base = 0.02 * np.cos(2 * x)

    cfg = SolverConfig(epsilon=0.0, dt=1e-2, n_x=n_x, n_z=small_grids.normal.n_z)
    rho_new, rho_t = interface_step(zeros, u_zero, base, cfg, small_grids,
                                    jump_forcing=np.sin(x))
    assert np.abs(rho_t - np.sin(x)).max() < 1e-13
    assert np.abs(rho_new - base - cfg.dt * np.sin(x)).max() < 1e-14

    cfg1 = SolverConfig(epsilon=1.0, dt=1e-2, n_x=n_x, n_z=small_grids.normal.n_z)
    _, rho_t = interface_step(zeros, u_zero, base, cfg1, small_grids,
                              jump_forcing=np.sin(x))
    assert np.abs(rho_t - 0.5 * np.sin(x)).max() < 1e-13  # (1 + eps k^4) at k=1
    _, rho_t = interface_step(zeros, u_zero, base, cfg1, small_grids,
                              jump_forcing=np.full(n_x, 0.4))
    assert np.abs(rho_t - 0.4).max() < 1e-14  # the mean mode is never damped


def test_interface_step_theta_blends_right_hand_sides(small_grids):
    n_x = small_grids.tangential.n_x
    x = small_grids.tangential.nodes
    cfg = SolverConfig(theta=0.5, dt=1e-2, n_x=n_x, n_z=small_grids.normal.n_z)
    _, rho_t = interface_step(np.zeros(n_x), np.zeros(small_grids.shape),
                              np.zeros(n_x), cfg, small_grids,
                              jump_forcing=np.sin(x), rhs_old=3.0 * np.sin(x))
    assert np.abs(rho_t - 2.0 * np.sin(x)).max() < 1e-13


def test_interface_step_stabilization_preserves_fixed_points(small_grids):
    # when the unstabilized update would return rho_m itself, the
    # stabilized one must too (the model term cancels at the fixed point)
    n_x = small_grids.tangential.n_x
    x = small_grids.tangential.nodes
    cfg = SolverConfig(epsilon=0.0, dt=1e-2, n_x=n_x, n_z=small_grids.normal.n_z)
    forcing = np.sin(x) + 0.2 * np.cos(3 * x)
    rho_m = cfg.dt * forcing  # = rho_base + dt * rhs with rho_base = 0
    sigma = 5.0 + np.arange(n_x // 2 + 1, dtype=float)
    rho_new, rho_t = interface_step(rho_m, np.zeros(small_grids.shape),
                                    np.zeros(n_x), cfg, small_grids,
                                    jump_forcing=forcing, jump_response=sigma)
    assert np.abs(rho_new - rho_m).max() < 1e-15
    assert np.abs(rho_t - forcing).max() < 1e-13


# ------------------------------------------------------------ fixed point

def test_fixed_point_flat_state_converges_immediately(small_cfg, small_grids, small_cutoff):
    rho = np.full(small_cfg.n_x, 0.1)
    state = State(t=0.0, u=np.zeros(small_grids.shape), rho=rho)
    new_state, report = fixed_point_step(state, small_cfg, small_grids, small_cutoff)
    assert report.inner_iters == 1
    assert np.all(new_state.u == 0.0)
    assert np.abs(new_state.rho - 0.1).max() < 1e-15
    assert new_state.t == small_cfg.dt
    assert new_state.rho_prev is rho


def test_fixed_point_contracts_after_first_iterate(small_grids, small_cutoff):
    cfg = SolverConfig(dt=1e-3, n_x=32, n_z=33, k_diag=0)
    x = small_grids.tangential.nodes
    rho0 = 0.05 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg, small_grids, small_cutoff)
    _, report = fixed_point_step(State(t=0.0, u=u0, rho=rho0), cfg,
                                 small_grids, small_cutoff)
    assert report.inner_iters >= 2
    assert len(report.fp_norms) == report.inner_iters
    # the first ratio overshoots (the seed iterate lags rho_t), later ones
    # must all contract
    assert all(r < 1.0 for r in report.fp_ratios[1:])
    assert report.fp_norms[-1] <= cfg.fp_tol
    assert report.lin_residual <= cfg.lin_tol
    assert report.lag_iters >= report.inner_iters


def test_fixed_point_tall_manufactured_column_converges():
    # At n_z = 257 the Dirichlet row is much smaller than its neighbour's
    # coupling to it; factoring with that row left in lets partial pivoting
    # swap the two, and the first step then stalls above fp_tol.
    from stefansim.oracles import ManufacturedProblem

    cfg = SolverConfig(epsilon=1e-3, n_x=32, n_z=257, theta=0.5, dt=0.01, k_diag=0)
    grids, cutoff = cfg.grids(), cfg.cutoff()
    problem = ManufacturedProblem(grids, cutoff, cfg.epsilon)
    u0, rho0 = problem.initial_data()
    _, report = fixed_point_step(State(t=0.0, u=u0, rho=rho0), cfg, grids, cutoff,
                                 forcing=problem)
    assert report.inner_iters <= 6
    assert report.fp_norms[-1] <= cfg.fp_tol


def test_fixed_point_error_carries_last_iterate_info(small_grids, small_cutoff):
    cfg = SolverConfig(dt=50.0, n_x=32, n_z=33, fp_max_iter=4, k_diag=0)
    x = small_grids.tangential.nodes
    state = State(t=0.0, u=np.zeros(small_grids.shape), rho=0.05 * np.sin(x))
    with pytest.raises(FixedPointError) as exc:
        fixed_point_step(state, cfg, small_grids, small_cutoff)
    assert exc.value.last_norm > cfg.fp_tol
    assert exc.value.last_ratio is not None


# -------------------------------------------------------------- run driver

def test_run_zero_horizon_reports_initial_state_only():
    cfg = SolverConfig(n_x=16, n_z=17, k_diag=0)
    x = cfg.grids().tangential.nodes
    res = run(np.zeros(cfg.grids().shape), 0.01 * np.sin(x), cfg, 0.0,
              collect_states=True)
    assert len(res.reports) == 1 and res.state.t == 0.0
    assert len(res.states) == 1
    assert res.reports[0].cons_residual == 0.0


def test_run_step_count_and_callbacks():
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    seen = []
    res = run(np.zeros(cfg.grids().shape), 0.01 * np.sin(x), cfg, 5 * cfg.dt,
              callbacks=(lambda state, report: seen.append(state.t),),
              collect_states=True)
    assert len(res.reports) == 6
    assert res.state.t == pytest.approx(5 * cfg.dt, rel=1e-12)
    assert seen == [pytest.approx((j + 1) * cfg.dt) for j in range(5)]
    assert len(res.states) == len(res.reports)


def test_run_halves_dt_on_failure_and_persists():
    cfg = SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0, max_dt_halvings=2)
    x = cfg.grids().tangential.nodes
    rho0 = 0.1 * np.sin(x)
    res = run(np.zeros(cfg.grids().shape), rho0, cfg, 0.08)
    assert res.cfg.dt == pytest.approx(0.01)
    assert len(res.reports) == 9  # 8 accepted steps at the quartered dt
    assert res.state.t == pytest.approx(0.08)
    with pytest.raises(LinearSolveError):
        run(np.zeros(cfg.grids().shape), rho0,
            SolverConfig(dt=0.04, n_x=32, n_z=33, k_diag=0, max_dt_halvings=0),
            0.08)


def test_run_is_deterministic():
    cfg = SolverConfig(n_x=32, n_z=33, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = 0.03 * np.sin(x) + 0.01 * np.cos(2 * x)
    u0 = compatible_initial_temperature(rho0, cfg)
    a = run(u0, rho0, cfg, 5 * cfg.dt)
    b = run(u0, rho0, cfg, 5 * cfg.dt)
    assert np.array_equal(a.state.u, b.state.u)
    assert np.array_equal(a.state.rho, b.state.rho)
    assert [r.E for r in a.reports] == [r.E for r in b.reports]


def test_run_short_decay_diagnostics():
    cfg = SolverConfig(n_x=32, n_z=33, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = 1e-3 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    res = run(u0, rho0, cfg, 0.02, compute_identity=False)
    assert all(r.cons_residual <= 1e-6 for r in res.reports[1:])
    energies = [r.E for r in res.reports[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(energies, energies[1:]))
    assert all(r.rho_dev_L2 > 0 for r in res.reports)
    assert res.steady_level == pytest.approx(0.0, abs=1e-12)
    assert all(r.i_psi_min_gap >= -1e-12 for r in res.reports)


def test_run_identity_column_fills_once_history_suffices():
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=1)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    res = run(u0, rho0, cfg, 4 * cfg.dt, compute_identity=True)
    assert res.reports[0].identity_residual is None
    assert res.reports[1].identity_residual is None
    for r in res.reports[2:]:
        assert r.identity_residual is not None
        assert 0.0 <= r.identity_residual < 1.0
    # order-1 diagnostics need history: the first report flags the
    # time-derivative terms instead of zeroing them
    assert res.reports[0].missing_E != ()
    assert res.reports[2].missing_E == ()


def test_run_epsilon_schedule_matches_direct_run():
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0, epsilon=0.0)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    sched = run_epsilon_schedule(u0, rho0, cfg, 3 * cfg.dt, (0.0, 1e-2))
    assert set(sched) == {0.0, 1e-2}
    direct = run(u0, rho0, cfg, 3 * cfg.dt)
    assert np.array_equal(sched[0.0].state.u, direct.state.u)
    assert np.array_equal(sched[0.0].state.rho, direct.state.rho)
    assert sched[1e-2].cfg.epsilon == 1e-2


def test_run_rejects_non_finite_accepted_state_naming_t(monkeypatch):
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=1)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    real_step = stepper.fixed_point_step

    def corrupting_step(state, *args, **kwargs):
        new_state, report = real_step(state, *args, **kwargs)
        if new_state.t > 1.5 * cfg.dt:
            new_state.u[3, 2] = np.nan  # off the interface row: the trace check passes
        return new_state, report

    monkeypatch.setattr(stepper, "fixed_point_step", corrupting_step)
    with pytest.raises(NonFiniteFieldError, match=r"accepted u at t=0\.002\b"):
        run(u0, rho0, cfg, 4 * cfg.dt)
