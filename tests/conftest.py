"""Shared fixtures and hypothesis profile for the suite."""
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from stefansim import stepper
from stefansim.errors import LinearSolveError
from stefansim.functionals import EnergyNormK0
from stefansim.grids import first_walls
from stefansim.stepper import _BulkLU, SolverConfig, compatible_initial_temperature, make_level
from stefansim.transform import norm_weights

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


def pytest_addoption(parser):
    parser.addoption("--pin-trajectories", action="store_true",
                     help="rewrite tests/data/trajectories from the acceptance runs, "
                          "then check against the rewritten files")


def one_sided_normals(values, grid, walls=first_walls):
    """``walls`` (``first_walls`` or ``second_walls``) along the last axis of
    a full bulk array, with the interface row taken one-sided from above
    (z >= 0 data), then from below (z <= 0): a reference for the normal
    derivatives that does not go through ``halves``."""
    mid = grid.i_mid
    out = []
    for side, row in ((values[..., mid:], 0), (values[..., : mid + 1], -1)):
        d = walls(values, grid.dz)
        d[..., mid] = walls(side, grid.dz)[..., row]
        out.append(d)
    return tuple(out)


def levels(cfg, times, us, rhos):
    """The level records of aligned (t, u, rho) samples on the grids of
    ``cfg``, built by ``make_level`` as ``run`` builds its history."""
    return [make_level(t, u, rho, cfg) for t, u, rho in zip(times, us, rhos, strict=True)]


def dt_setup(level, cfg):
    """The keywords ``bulk`` and ``fp_norm`` that ``run`` hands every step
    of a dt that starts from ``level``: the ``_BulkLU`` of the weight a of
    its interface, with cfg's dt and theta, and the ``EnergyNormK0`` of
    that interface, both from one ``norm_weights`` call."""
    a_psi, bracket = norm_weights(level.rho, level.rho_x, cfg.cutoff(), cfg.grids())
    return {"bulk": _BulkLU(a_psi, 1.0 / cfg.dt, cfg.theta, cfg.grids()),
            "fp_norm": EnergyNormK0(level.rho_x, a_psi, bracket, cfg)}


# the dt above which the dt-halving tests make every temperature solve stall:
# a run from dt = 0.04 halves twice, to 0.01
HALVING_STALL_DT = 0.015


def stall_above(monkeypatch, dt_max):
    """Make the temperature solve of every time step whose dt exceeds
    ``dt_max`` raise, before its lag loop starts, the LinearSolveError of
    a stalled solve: a deterministic failure for the dt-halving paths of
    ``run`` and the CLI.  The steady solve (1/dt = 0) is left alone.  The
    patch is a module attribute, so sweep workers forked after it inherit
    it; the message names the forced stall, so a test can tell that the
    stall it reads came from here."""
    real = stepper.temperature_step

    def temperature_step(step, *args, **kwargs):
        inv_dt = step.bulk.inv_dt
        if 0.0 < inv_dt and 1.0 / inv_dt > dt_max:
            raise LinearSolveError(f"temperature solve stalled: forced at dt={1.0 / inv_dt:g} "
                                   f"> {dt_max:g}", residual=1.0)
        return real(step, *args, **kwargs)

    monkeypatch.setattr(stepper, "temperature_step", temperature_step)


@pytest.fixture(scope="session")
def small_cfg():
    return SolverConfig(n_x=32, n_z=33)


@pytest.fixture(scope="session")
def small_grids(small_cfg):
    return small_cfg.grids()


@pytest.fixture(scope="session")
def small_cutoff(small_cfg):
    return small_cfg.cutoff()


@pytest.fixture(scope="session")
def smooth_state(small_grids):
    """A generic smooth, well-resolved (u, rho) pair on the small grids."""
    x = small_grids.tangential.nodes
    z = small_grids.normal.nodes[None, :]
    rho = 0.05 * np.sin(x) + 0.02 * np.cos(2 * x)
    u = (0.03 * np.cos(x)[:, None] + 0.01) * np.cos(np.pi * z) \
        + 0.02 * np.sin(x)[:, None] * z**2
    return u, rho


class ConstantForcing:
    """Bulk, Dirichlet and jump forcing that do not change in time."""

    def __init__(self, grids):
        x = grids.tangential.nodes
        z = grids.normal.nodes[None, :]
        self.fields = (0.1 * np.sin(x)[:, None] * np.cos(np.pi * z),
                       0.01 * np.cos(x), 0.05 * np.sin(2 * x))

    def at(self, t):
        return tuple(f.copy() for f in self.fields)


@pytest.fixture(scope="session")
def forced_step_problem():
    """Builds (cfg, level, forcing) for one forced time step at a non-flat
    interface, given theta: level is the old time's ``make_level``."""
    def build(theta):
        cfg = SolverConfig(dt=1e-3, n_x=32, n_z=33, k_diag=0, theta=theta)
        x = cfg.grids().tangential.nodes
        rho0 = 0.05 * np.sin(x) + 0.02 * np.cos(3 * x)
        u0 = compatible_initial_temperature(rho0, cfg)
        return cfg, make_level(0.0, u0, rho0, cfg), ConstantForcing(cfg.grids())
    return build
