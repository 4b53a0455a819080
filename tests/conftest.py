"""Shared fixtures and hypothesis profile for the suite."""
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from stefansim import stepper
from stefansim.errors import LinearSolveError
from stefansim.grids import first_walls
from stefansim.stepper import SolverConfig, compatible_initial_temperature, make_level

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


def real_rfft(v):
    """numpy's rfft along axis 0 of the real field v in the package's real
    layout: (2, modes, ...), the real parts then the imaginary parts, and
    a row's (2 modes,) flat.  numpy's FFT is the tests' reference."""
    hat = np.fft.rfft(v, axis=0)
    x = np.stack((hat.real, hat.imag))
    return x.reshape(-1) if np.ndim(v) == 1 else x


def fft_derivatives(x, n, terms):
    """numpy's irfft reference for ``RealTransforms.d_x``: the derivative
    of each term of ``terms`` (each named by the orders of its factors) of
    the n-point field whose rfft has the real layout x, a row's flat or
    (2, modes, ...): one row per term, (len(terms), n, ...), from the
    multiplier (ik)^order with the Nyquist mode zeroed when any factor is
    odd."""
    x = np.reshape(x, (2, n // 2 + 1, *np.shape(x)[2:]))
    hat = x[0] + 1j * x[1]
    k = np.arange(n // 2 + 1)
    rows = []
    for factors in terms:
        mult = (1j * k) ** sum(factors)
        if any(order % 2 for order in factors):
            mult[-1] = 0.0
        rows.append(np.fft.irfft(hat * mult.reshape(-1, *[1] * (hat.ndim - 1)), n=n, axis=0))
    return np.array(rows)


def levels(cfg, times, us, rhos):
    """The level records of aligned (t, u, rho) samples on the grids of
    ``cfg``, built by ``make_level`` as ``run`` builds its history."""
    return [make_level(t, u, rho, cfg) for t, u, rho in zip(times, us, rhos, strict=True)]


def dt_setup(level, cfg):
    """The keyword ``setup`` that ``run`` hands every step of a segment of
    cfg's dt and theta that starts from ``level``: the stepper's own
    ``_dt_setup`` record, ``_DtSetup(bulk, fp_norm, interface)``."""
    return {"setup": stepper._dt_setup(level, cfg)}


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
