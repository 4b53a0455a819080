"""Flattening map: cutoff profile, operator coefficients, curvature."""
import numpy as np
import pytest

from stefansim.errors import DegenerateTransformError, ResolutionWarning
from stefansim.grids import (
    Grids,
    NormalGrid,
    TangentialGrid,
    band_limited,
    d_tangential,
    first_walls,
    halves,
    interface_sum,
)
from stefansim.oracles import curvature_closed_form
from stefansim.transform import (
    Cutoff,
    coefficients,
    curvature,
    grid_profiles,
    jump_normal_derivative,
    norm_weights,
)


# ------------------------------------------------------------ cutoff

def test_cutoff_alpha_validation():
    for bad in (0.0, 1.0 / 3.0, 0.34, -0.1):
        with pytest.raises(ValueError):
            Cutoff(alpha=bad)
    assert Cutoff(alpha=0.25).max_slope == pytest.approx(3.75)
    assert Cutoff(alpha=0.1).max_slope == pytest.approx(1.875 / 0.8)


def test_cutoff_plateaus_exact():
    co = Cutoff(alpha=0.25)
    inner = np.linspace(-0.25, 0.25, 11)
    phi, dphi, d2phi = co.profiles(inner)
    assert np.all(phi == 1.0) and np.all(dphi == 0.0) and np.all(d2phi == 0.0)
    outer = np.array([-1.0, -0.9, -0.75, 0.75, 0.9, 1.0])
    phi, dphi, d2phi = co.profiles(outer)
    assert np.all(phi == 0.0) and np.all(dphi == 0.0) and np.all(d2phi == 0.0)


def test_cutoff_symmetry_and_range():
    co = Cutoff(alpha=0.2)
    z = np.linspace(-1, 1, 401)
    phi, dphi, d2phi = co.profiles(z)
    phi_m, dphi_m, d2phi_m = co.profiles(-z)
    assert np.array_equal(phi, phi_m)       # even
    assert np.array_equal(dphi, -dphi_m)    # odd
    assert np.array_equal(d2phi, d2phi_m)   # even
    assert phi.min() >= 0.0 and phi.max() == 1.0
    assert np.all(dphi[z > 0] <= 0.0)              # monotone decay outward


def test_cutoff_max_slope_attained_at_ramp_midpoint():
    co = Cutoff(alpha=0.25)
    z_star = 0.25 + 0.5 * (1.0 - 2 * 0.25)  # middle of the ramp
    _, dphi, _ = co.profiles(np.array([z_star]))
    assert abs(dphi[0]) == pytest.approx(co.max_slope, rel=1e-14)
    z = np.linspace(0, 1, 100001)
    assert np.abs(co.profiles(z)[1]).max() <= co.max_slope + 1e-12


def test_cutoff_is_c2_by_finite_differences():
    co = Cutoff()
    h = 1e-5
    z = np.linspace(-0.999, 0.999, 20011)
    phi, dphi, d2phi = co.profiles(z)
    fd1 = (co.profiles(z + h)[0] - co.profiles(z - h)[0]) / (2 * h)
    fd2 = (co.profiles(z + h)[1] - co.profiles(z - h)[1]) / (2 * h)
    assert np.abs(fd1 - dphi).max() < 1e-7
    assert np.abs(fd2 - d2phi).max() < 1e-6


# ------------------------------------------------------- coefficients

def test_coefficients_identity_for_flat_interface(small_cfg, small_grids, small_cutoff):
    n_x = small_cfg.n_x
    zeros = np.zeros(n_x)
    coef = coefficients(zeros, zeros, small_cutoff, small_grids, rho_x=zeros, rho_xx=zeros)
    assert np.all(coef.a == 1.0)
    assert np.all(coef.B == 0.0)
    assert np.all(coef.c == 0.0)
    assert np.all(coef.bracket == 1.0)


def test_coefficients_plateau_rows(small_grids, small_cutoff, smooth_state):
    _, rho = smooth_state
    rho_t = 0.3 * np.cos(small_grids.tangential.nodes)
    coef = coefficients(rho, rho_t, small_cutoff, small_grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    z = small_grids.normal.nodes
    wall = np.abs(z) >= 1.0 - small_cutoff.alpha
    # outer plateau: the operator is the plain Laplacian
    assert np.all(coef.a[:, wall] == 1.0)
    assert np.all(coef.B[:, wall] == 0.0)
    assert np.all(coef.c[:, wall] == 0.0)
    # inner plateau: unit jacobian, graph metric in a, full advection
    mid = small_grids.normal.i_mid
    rx = d_tangential(rho, 1)
    rxx = d_tangential(rho, 2)
    assert np.array_equal(coef.a[:, mid], 1.0 + rx**2)
    assert np.array_equal(coef.B[:, mid], 2.0 * rx)
    assert np.array_equal(coef.c[:, mid], rxx - rho_t)


def test_coefficients_accept_supplied_derivatives(small_grids, small_cutoff):
    x = small_grids.tangential.nodes
    rho = 0.05 * np.sin(x)
    exact = coefficients(rho, np.zeros_like(rho), small_cutoff, small_grids,
                         rho_x=0.05 * np.cos(x), rho_xx=-0.05 * np.sin(x))
    spectral = coefficients(rho, np.zeros_like(rho), small_cutoff, small_grids,
                            rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    assert np.abs(exact.a - spectral.a).max() < 1e-13
    assert np.abs(exact.c - spectral.c).max() < 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_norm_weights_bitwise_match_coefficients(small_grids, small_cutoff, seed):
    rng = np.random.default_rng(seed)
    rho = band_limited(rng, small_grids.tangential, 0.1) + 0.1 * rng.standard_normal()
    rho_t = band_limited(rng, small_grids.tangential, 1.0)
    coef = coefficients(rho, rho_t, small_cutoff, small_grids,
                        rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    a, bracket = norm_weights(rho, d_tangential(rho, 1), small_cutoff, small_grids)
    assert np.array_equal(a.view(np.uint64), coef.a.view(np.uint64))
    assert np.array_equal(bracket.view(np.uint64), coef.bracket.view(np.uint64))


def test_grid_profiles_are_cached_read_only_rows(small_grids, small_cutoff):
    rows = grid_profiles(small_cutoff, small_grids.normal)
    assert grid_profiles(Cutoff(small_cutoff.alpha), NormalGrid(small_grids.normal.n_z)) is rows
    for row, ref in zip(rows, small_cutoff.profiles(small_grids.normal.nodes)):
        assert row.shape == (1, small_grids.normal.n_z) and not row.flags.writeable
        assert np.array_equal(row[0], ref)


def test_degenerate_transform_raises_with_node(small_grids, small_cutoff):
    rho = np.full(small_grids.tangential.n_x, 0.6)
    with pytest.raises(DegenerateTransformError) as exc:
        coefficients(rho, np.zeros_like(rho), small_cutoff, small_grids,
                     rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    i, j = exc.value.node
    assert 0 <= i < small_grids.tangential.n_x
    assert 0 <= j < small_grids.normal.n_z
    # just inside the invertibility bound: fine
    rho_ok = np.full(small_grids.tangential.n_x, 0.9 / small_cutoff.max_slope)
    coefficients(rho_ok, np.zeros_like(rho_ok), small_cutoff, small_grids,
                 rho_x=d_tangential(rho_ok, 1), rho_xx=d_tangential(rho_ok, 2))
    with pytest.raises(DegenerateTransformError):
        norm_weights(rho, np.zeros_like(rho), small_cutoff, small_grids)


# ---------------------------------------------------------- curvature

def test_curvature_of_flat_and_const_is_zero():
    rho = np.full(64, 0.17)
    assert np.all(curvature(rho) == 0.0)


def test_curvature_matches_closed_form():
    x = TangentialGrid(128).nodes
    rho = 0.3 * np.sin(2 * x)
    assert np.abs(curvature(rho) - curvature_closed_form(x, 0.3, k=2)).max() < 1e-10


def test_curvature_vertical_shift_invariance():
    x = TangentialGrid(64).nodes
    rho = 0.1 * np.sin(x) + 0.05 * np.cos(3 * x)
    assert np.abs(curvature(rho + 0.4) - curvature(rho)).max() < 1e-13


def test_curvature_integrates_to_zero():
    x = TangentialGrid(64).nodes
    rho = 0.2 * np.sin(x) + 0.1 * np.cos(2 * x)
    assert abs(interface_sum(curvature(rho), TangentialGrid(64))) < 1e-13


def test_curvature_linearizes_to_second_derivative():
    # kappa - rho_xx = O(|rho|^3): the max-norm remainder must scale
    # cubically when the amplitude drops by 10
    x = TangentialGrid(64).nodes
    errs = []
    for delta in (1e-2, 1e-3):
        rho = delta * np.sin(x)
        errs.append(np.abs(curvature(rho) - d_tangential(rho, 2)).max())
    assert 900.0 < errs[0] / errs[1] < 1100.0


def curvature_expanded(rho):
    """Expanded curvature rho_xx/<rho> - rho_x^2 rho_xx/<rho>^3, the same
    function as the divergence form ``curvature`` up to aliasing."""
    rx = d_tangential(rho, 1)
    rxx = d_tangential(rho, 2)
    br = np.sqrt(1.0 + rx**2)
    return rxx / br - rx**2 * rxx / br**3


def test_curvature_divergence_vs_expanded_form():
    diffs = []
    for n_x in (64, 128):
        x = TangentialGrid(n_x).nodes
        rho = 0.3 * np.sin(2 * x)
        diffs.append(np.abs(curvature(rho) - curvature_expanded(rho)).max())
    assert diffs[1] < 1e-12
    assert diffs[1] < diffs[0] / 1e4  # aliasing dies out under refinement


def test_curvature_resolution_warning():
    import warnings

    x = TangentialGrid(32).nodes
    rough = 0.01 * np.sin(12 * x)
    with pytest.warns(ResolutionWarning):
        curvature(rough)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning would fail the test
        curvature(0.01 * np.sin(2 * x))


# ------------------------------------------------------ jump bracket

def test_jump_normal_derivative_values():
    grids = Grids(TangentialGrid(8), NormalGrid(17))
    z = grids.normal.nodes[None, :]
    smooth = np.broadcast_to(z**2, grids.shape).copy()
    assert np.abs(jump_normal_derivative(smooth, grids)).max() < 1e-14
    kink = np.broadcast_to(np.abs(z), grids.shape).copy()
    assert jump_normal_derivative(kink, grids) == pytest.approx(-2.0, abs=1e-13)


def test_jump_normal_derivative_refines():
    jumps = []
    for n_z in (17, 33):
        grids = Grids(TangentialGrid(8), NormalGrid(n_z))
        u = np.broadcast_to(np.cos(np.pi * grids.normal.nodes)[None, :],
                            grids.shape).copy()
        jumps.append(np.abs(jump_normal_derivative(u, grids)).max())
    assert jumps[0] < 0.1
    assert jumps[1] < jumps[0] / 6.0


@pytest.mark.parametrize("n_z", [9, 17, 65])
def test_jump_normal_derivative_bitwise_matches_full_arrays(n_z):
    grids = Grids(TangentialGrid(16), NormalGrid(n_z))
    rng = np.random.default_rng(n_z)
    z = grids.normal.nodes[None, :]
    u = (band_limited(rng, grids.tangential, 1.0)[:, None] * np.abs(z)
         + band_limited(rng, grids.tangential, 1.0)[:, None] * np.cos(3.0 * z)
         + rng.standard_normal(grids.shape))
    d_u = first_walls(halves(u, grids.normal), grids.normal.dz)
    full = d_u[..., 0, -1] - d_u[..., 1, 0]  # the interface row from below, from above
    assert np.array_equal(jump_normal_derivative(u, grids), full)
