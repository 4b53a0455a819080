"""Energy-balance evaluator for the frozen-coefficient model problem."""
import dataclasses
import sys

import numpy as np
import pytest

from stefansim import stepper
from stefansim.errors import NonFiniteFieldError
from stefansim.grids import RealTransforms
from stefansim.identity import identity_residual_k0, model_energy
from stefansim.stepper import SolverConfig, compatible_initial_temperature, run

from conftest import levels


def synthetic_samples(grids, dt=1e-3, amp=0.05, decay=0.7):
    """Smooth fabricated (t, u, rho) samples; not a PDE solution."""
    x = grids.tangential.nodes
    z = grids.normal.nodes[None, :]

    def sample(t):
        damp = np.exp(-decay * t)
        u = damp * (amp * np.cos(x)[:, None] * np.cos(np.pi * z)
                    + 0.5 * amp * z**2)
        rho = damp * amp * np.sin(x)
        return (t, u, rho)

    return [sample(j * dt) for j in range(3)]


def as_levels(samples, cfg):
    return levels(cfg, *zip(*samples))


def synthetic_window(cfg):
    """The level records of ``synthetic_samples``."""
    return as_levels(synthetic_samples(cfg.grids()), cfg)


def med(eps):
    """The 32 x 33 settings at epsilon ``eps``."""
    return SolverConfig(epsilon=eps, n_x=32, n_z=33)


@pytest.fixture(scope="module")
def med_grids():
    return med(0.0).grids()


def test_steady_window_is_exactly_balanced(med_grids):
    # u == 0, rho == const: every term of the identity vanishes identically
    u = np.zeros(med_grids.shape)
    rho = np.full(32, 0.1)
    window = levels(med(0.0), [0.0, 0.1, 0.2], [u] * 3, [rho] * 3)
    rep = identity_residual_k0(window, med(1e-3))
    assert rep.lhs == 0.0 and rep.rhs == 0.0
    assert rep.residual == 0.0
    assert rep.dE_dt == 0.0 and rep.D_bar == 0.0
    assert rep.bulk_P == 0.0 and rep.bulk_R == 0.0
    assert rep.bdry_Q == rep.bdry_S == rep.bdry_T == 0.0


def test_window_validation(med_grids):
    samples = synthetic_samples(med_grids)
    window = as_levels(samples, med(0.0))
    with pytest.raises(ValueError):
        identity_residual_k0(window[:2], med(0.0))  # even length
    with pytest.raises(ValueError):
        identity_residual_k0(window[:1], med(0.0))  # too short
    dt = samples[1][0] - samples[0][0]
    five = as_levels(samples + [(samples[2][0] + j * dt, *samples[2][1:]) for j in (1, 2)],
                     med(0.0))
    with pytest.raises(ValueError):
        identity_residual_k0(five, med(0.0))  # uniform, but not three
    skewed = as_levels([samples[0], samples[1], (samples[2][0] + 0.5, *samples[2][1:])],
                       med(0.0))
    with pytest.raises(ValueError):
        identity_residual_k0(skewed, med(0.0))  # non-uniform


def test_generic_window_report_is_consistent():
    rep = identity_residual_k0(synthetic_window(med(0.0)), med(1e-2))
    assert rep.t == pytest.approx(1e-3)
    assert rep.residual >= 0.0
    assert rep.lhs == pytest.approx(rep.dE_dt + rep.D_bar)


def test_zero_eps_is_the_continuous_limit():
    # the eps terms enter multiplicatively: eps -> 0 must agree with eps = 0
    window = synthetic_window(med(0.0))
    rep0 = identity_residual_k0(window, med(0.0))
    rep_tiny = identity_residual_k0(window, med(1e-30))
    for f in dataclasses.fields(rep0):
        a = getattr(rep0, f.name)
        b = getattr(rep_tiny, f.name)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-20), f.name


def test_model_energy_basics(med_grids):
    zero, = levels(med(0.0), [0.0], [np.zeros(med_grids.shape)], [np.zeros(32)])
    assert model_energy(zero, med(0.5)) == 0.0
    x = med_grids.tangential.nodes
    z = med_grids.normal.nodes[None, :]
    u = 0.1 * np.cos(x)[:, None] * np.cos(np.pi * z)
    rho = 0.05 * np.sin(x)
    level, = levels(med(0.0), [0.0], [u], [rho])
    e0 = model_energy(level, med(0.0))
    e1 = model_energy(level, med(1.0))
    assert 0.0 < e0 < e1  # eps terms only add nonnegative interface energy
    # the level keeps the value of the epsilon it was last taken at
    assert level.E_bar == (1.0, e1) and model_energy(level, med(0.0)) == e0


# IdentityReport of synthetic_window on the 32 x 33 grids, recorded from the
# evaluator that spelled out every term of the general statement (T in its
# uncollapsed form, the chi - omega cross terms evaluated at chi := omega)
GOLDEN = {
    0.0: dict(t=0.001, lhs=0.9170709573346716, rhs=0.017337079142608142,
              residual=0.9628918449520038, dE_dt=-0.1583265276659876,
              D_bar=1.0753974850006591, bulk_P=0.00043923764931477294,
              bulk_R=0.016868123633371757, bdry_Q=-5.1237687499959735e-06,
              bdry_S=-1.4346553671623715e-05, bdry_T=-1.0247537499992362e-05),
    1e-2: dict(t=0.001, lhs=0.9169833515849681, rhs=0.01733737632120736,
               residual=0.9628877412036042, dE_dt=-0.15849092292238853,
               D_bar=1.0754742745073567, bulk_P=0.00043923764931477294,
               bulk_R=0.016868123633371757, bdry_Q=-5.17500643749597e-06,
               bdry_S=-1.4490019208339792e-05, bdry_T=-1.0350012874992946e-05),
}


@pytest.mark.parametrize("eps", sorted(GOLDEN))
def test_report_matches_the_literal_evaluator(eps):
    rep = identity_residual_k0(synthetic_window(med(0.0)), med(eps))
    assert {f.name for f in dataclasses.fields(rep)} == set(GOLDEN[eps])
    for name, ref in GOLDEN[eps].items():
        assert getattr(rep, name) == pytest.approx(ref, rel=1e-12, abs=0.0), name


def test_one_call_transforms_each_field_once(monkeypatch):
    # u and rho of each level are transformed once, when its record is
    # built (rho by ``interface_transforms``, u by the forward product); the
    # evaluator makes no forward transform (rho_t's and u_n's come from the
    # levels'), numpy's rfft included, and no checked derivative: run
    # checks each accepted state once
    count = {"rfft": 0}
    real, real_forward, real_interface = (np.fft.rfft, RealTransforms.forward,
                                          stepper.interface_transforms)

    def counting(*args, **kwargs):
        count["rfft"] += 1
        return real(*args, **kwargs)

    def counting_forward(self, v):
        count["rfft"] += 1
        return real_forward(self, v)

    def counting_interface(rho):
        count["rfft"] += 1
        return real_interface(rho)

    def forbidden(*args, **kwargs):
        raise AssertionError("d_tangential called")

    monkeypatch.setattr(np.fft, "rfft", counting)
    monkeypatch.setattr(RealTransforms, "forward", counting_forward)
    monkeypatch.setattr(stepper, "interface_transforms", counting_interface)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("stefansim") and hasattr(mod, "d_tangential"):
            monkeypatch.setattr(mod, "d_tangential", forbidden)
    window = synthetic_window(med(0.0))
    assert count["rfft"] == 6
    identity_residual_k0(window, med(1e-2))
    assert count["rfft"] == 6


@pytest.mark.parametrize("j, name", [(0, "u"), (1, "rho"), (1, "u"), (2, "rho")])
def test_non_finite_sample_is_named(monkeypatch, j, name):
    # sample j of the first window is the level made by step j; run checks
    # it once, when it is made, and names that step, before the identity
    # (which checks nothing itself) reads the window
    cfg = SolverConfig(n_x=16, n_z=17, dt=1e-3, k_diag=0)
    x = cfg.grids().tangential.nodes
    rho0 = 0.01 * np.sin(x)
    u0 = compatible_initial_temperature(rho0, cfg)
    if j == 0:
        u0.flat[3] = np.nan
    real_step, real_identity = stepper.fixed_point_step, stepper.identity_residual_k0
    windows = []

    def corrupting_step(state, *args, **kwargs):
        new_state, report = real_step(state, *args, **kwargs)
        if abs(new_state.t - j * cfg.dt) < 0.5 * cfg.dt:
            getattr(new_state, name).flat[3] = np.nan  # u: off the interface row
        return new_state, report

    def recording_identity(window, *args):
        windows.append(window)
        return real_identity(window, *args)

    monkeypatch.setattr(stepper, "fixed_point_step", corrupting_step)
    monkeypatch.setattr(stepper, "identity_residual_k0", recording_identity)
    t = repr(j * cfg.dt).replace(".", r"\.")
    with pytest.raises(NonFiniteFieldError,
                       match=rf"^step {j} \(t={t}\): accepted {name}:") as exc:
        run(u0, rho0, cfg, 4 * cfg.dt, compute_identity=True)
    assert exc.value.step == j
    assert windows == []  # the first window would end at step 2
