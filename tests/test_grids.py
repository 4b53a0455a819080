"""Discrete calculus: spectral tangential derivatives, one-sided normal
stencils, quadrature, and the band-limited field generator."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stefansim.errors import NonFiniteFieldError
from stefansim.grids import (
    Grids,
    NormalGrid,
    PERIOD,
    TangentialGrid,
    band_limited,
    bulk_sum,
    d_tangential,
    d_tangential_hats,
    first_walls,
    halves,
    interface_sum,
    l2_interface,
    real_transforms,
    second_walls,
    tail_fraction_hat,
    tangential_multipliers,
)


# ---------------------------------------------------------------- grids

def test_tangential_grid_validation():
    with pytest.raises(ValueError):
        TangentialGrid(6)
    with pytest.raises(ValueError):
        TangentialGrid(33)
    g = TangentialGrid(32)
    assert g.spacing == pytest.approx(PERIOD / 32)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] < PERIOD


def test_normal_grid_validation():
    # odd, and four nodes per half-strip for the one-sided 4-point stencils
    for n_z in (4, 5, 7, 16):
        with pytest.raises(ValueError, match=f"n_z must be odd and >= 9, got {n_z}"):
            NormalGrid(n_z)
    assert NormalGrid(9).i_mid == 4
    g = NormalGrid(17)
    assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
    assert g.nodes[g.i_mid] == 0.0
    assert np.all(np.diff(g.nodes) > 0)


# ------------------------------------------------- tangential derivative

def test_d_tangential_trig_exact():
    x = TangentialGrid(64).nodes
    assert np.abs(d_tangential(np.sin(x), 1) - np.cos(x)).max() < 1e-12
    assert np.abs(d_tangential(np.full(64, 2.7), 1)).max() < 1e-13
    assert np.abs(d_tangential(np.sin(3 * x), 2) + 9 * np.sin(3 * x)).max() < 1e-11


def test_d_tangential_nyquist_zeroed_for_odd_order():
    n = 32
    x = TangentialGrid(n).nodes
    f = np.cos((n // 2) * x)  # pure Nyquist mode
    assert np.abs(d_tangential(f, 1)).max() < 1e-12
    # even orders keep it: second derivative is -(n/2)^2 f
    assert np.abs(d_tangential(f, 2) + (n // 2) ** 2 * f).max() < 1e-9


def test_d_tangential_bulk_axis_and_errors():
    grids = Grids(TangentialGrid(32), NormalGrid(9))
    x, z = grids.meshes()
    v = np.sin(x) * z**2
    assert np.abs(d_tangential(v, 1) - np.cos(x) * z**2).max() < 1e-12
    with pytest.raises(ValueError):
        d_tangential(np.sin(x[:, 0]), 0)
    with pytest.raises(NonFiniteFieldError):
        d_tangential(np.full(32, np.inf), 1)


@given(seed=st.integers(0, 10**6), alpha=st.floats(-2, 2), beta=st.floats(-2, 2))
def test_d_tangential_linearity(seed, alpha, beta):
    tg = TangentialGrid(32)
    rng = np.random.default_rng(seed)
    f = band_limited(rng, tg, 1.0)
    g = band_limited(rng, tg, 1.0)
    lhs = d_tangential(alpha * f + beta * g, 1)
    rhs = alpha * d_tangential(f, 1) + beta * d_tangential(g, 1)
    assert np.abs(lhs - rhs).max() < 1e-10 * (abs(alpha) + abs(beta) + 1.0)


@given(seed=st.integers(0, 10**6))
def test_derivative_integrates_to_zero(seed):
    tg = TangentialGrid(32)
    f = band_limited(np.random.default_rng(seed), tg, 1.0)
    assert abs(interface_sum(d_tangential(f, 1), tg)) < 1e-12


# ---------------------------------------------------- normal derivatives
# normal derivatives are the wall stencils taken on the two half-strips:
# [..., 0, -1] is the interface row from below, [..., 1, 0] from above

def test_d_normal_one_sided_at_interface():
    grids = Grids(TangentialGrid(8), NormalGrid(17))
    gz = grids.normal
    z = gz.nodes[None, :]
    v = np.broadcast_to(z**2, grids.shape).copy()
    assert abs(first_walls(halves(v, gz), gz.dz)[0, 1, 0]) < 1e-14
    kink = np.broadcast_to(np.abs(z), grids.shape).copy()
    d_kink = first_walls(halves(kink, gz), gz.dz)
    assert d_kink[0, 0, -1] - d_kink[0, 1, 0] == pytest.approx(-2.0, abs=1e-13)
    smooth = np.broadcast_to(np.cos(np.pi * z), grids.shape).copy()
    assert (abs(first_walls(halves(smooth, gz), gz.dz)[0, 1, 0])
            < 0.5 * gz.dz**2 * np.pi**3)


def test_d_normal2_exact_on_quadratics():
    gz = NormalGrid(17)
    z = gz.nodes
    v = (3.0 * z**2 - z + 1.0)[None, :].repeat(8, axis=0)
    # one-sided at the interface on each half-strip, centered on the full array
    assert np.abs(second_walls(halves(v, gz), gz.dz) - 6.0).max() < 1e-10
    assert np.abs(second_walls(v, gz.dz) - 6.0).max() < 1e-10


@pytest.mark.parametrize("op,exact", [
    (first_walls, lambda z: np.exp(z) * (np.sin(2 * z) + 2 * np.cos(2 * z))),
    (second_walls, lambda z: np.exp(z) * (4 * np.cos(2 * z) - 3 * np.sin(2 * z))),
])
def test_normal_derivative_second_order(op, exact):
    errs = []
    for n_z in (17, 33, 65):
        gz = NormalGrid(n_z)
        v = (np.exp(gz.nodes) * np.sin(2 * gz.nodes))[None, :].repeat(4, axis=0)
        err = np.abs(op(halves(v, gz), gz.dz) - halves(exact(gz.nodes), gz)[None]).max()
        errs.append(err)
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9)


def nested_d_tangential(v, factors):
    """The derivative named by ``factors`` as nested ``d_tangential`` calls,
    the first factor applied first (order 0 is v itself)."""
    for order in factors:
        v = d_tangential(v, order) if order else v
    return v


@pytest.mark.parametrize("n_x", [16, 64])
def test_derivative_factors_match_nested_calls(n_x):
    # a field with every mode, the Nyquist mode included
    v = np.random.default_rng(7).standard_normal((n_x, 5))
    v_hat = np.fft.rfft(v, axis=0)
    assert np.all(v_hat[-1] != 0.0)
    terms = ((1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1))
    got = d_tangential_hats(v_hat, n_x, terms)
    for row, factors in zip(got, terms):
        ref = nested_d_tangential(v, factors)
        assert np.abs(row - ref).max() <= 1e-12 * np.abs(ref).max(), factors
        nyquist = (v_hat * tangential_multipliers(n_x, (factors,))[0][:, None])[-1]
        odd = any(order % 2 == 1 for order in factors)
        assert np.all((nyquist == 0.0) == odd), factors


def test_derivative_batches_transform_each_distinct_multiplier_once(monkeypatch):
    # the s = 0 batches of evaluate_functionals at k_diag = 2, eps != 0:
    # d_z u_s (w and w_x), rho_s (four derivatives of each w) and rho_{s+1}
    # (w_x and w_xxx), w = d_x^mu.  Rows that share a multiplier, such as
    # (0, 3) and (1, 2), are transformed once, and each row has the bits
    # of its derivative taken alone.
    mus = range(5)
    batches = ((8, [(mu,) for mu in mus] + [(mu, 1) for mu in mus]),
               (11, [(mu, j) for mu in mus for j in (1, 2, 3, 4)]),
               (7, [(mu, 1) for mu in mus] + [(mu, 3) for mu in mus]))
    n_x = 32
    hat = np.fft.rfft(np.random.default_rng(3).standard_normal((n_x, 2, 9)), axis=0)
    rows, real_irfft = [], np.fft.irfft

    def counting_irfft(a, *args, **kwargs):
        rows.append(a.shape[0])
        return real_irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting_irfft)
    for distinct, terms in batches:
        rows.clear()
        got = d_tangential_hats(hat, n_x, tuple(terms))
        assert rows == [distinct] and len(got) == len(terms)
        for row, factors in zip(got, terms, strict=True):
            alone = d_tangential_hats(hat, n_x, (factors,))[0]
            assert np.array_equal(row.view(np.uint64), alone.view(np.uint64)), factors


@pytest.mark.parametrize("n_x", [8, 16, 64, 256])
def test_real_transforms_reproduce_numpy_ffts_and_derivatives(n_x):
    # the forward product is rfft's real and imaginary parts, the inverse
    # ones irfft and d_tangential_hats of orders 1 and 2 (the Nyquist mode
    # dropped by d_x, kept by d_x^2); irfft ignores the imaginary parts of
    # the k = 0 and Nyquist modes, and so do the inverse products.  Each
    # array agrees to 1e-13 of its maximum
    rng = np.random.default_rng(n_x)
    t = real_transforms(n_x)
    assert real_transforms(n_x) is t and not t.forward_matrix.flags.writeable
    v = rng.standard_normal((n_x, 5))
    v_hat = np.fft.rfft(v, axis=0)
    x = t.forward(v)
    assert x.shape == (2, n_x // 2 + 1, 5)
    for got, want in ((x[0], v_hat.real), (x[1], v_hat.imag)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.all(x[1, [0, -1]] == 0.0)  # no imaginary part at k = 0 and Nyquist
    hat = rng.standard_normal(v_hat.shape) + 1j * rng.standard_normal(v_hat.shape)
    x = np.stack((hat.real, hat.imag))
    u = t.inverse(x)
    assert u.shape == (n_x, 5) and u.flags.owndata
    want = np.fft.irfft(hat, n=n_x, axis=0)
    assert np.abs(u - want).max() <= 1e-13 * np.abs(want).max()
    both = t.derivatives(x)
    assert both.shape == (2, n_x, 5)
    for got, want in zip(both, d_tangential_hats(hat, n_x, ((1,), (2,))), strict=True):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(t.derivatives(x, 1)[0], both[0])
    # the Nyquist rule: a pure Nyquist mode has no d_x but a d_x^2
    nyquist = np.zeros_like(x)
    nyquist[0, -1] = 1.0
    d_x, d_xx = t.derivatives(nyquist)
    assert np.all(d_x == 0.0)
    assert np.abs(d_xx + (n_x // 2) ** 2 * t.inverse(nyquist)).max() <= 1e-13 * (n_x // 2) ** 2


# ------------------------------------------------------------ quadrature

def test_quadrature_reference_values():
    tg = TangentialGrid(32)
    grids = Grids(tg, NormalGrid(17))
    assert interface_sum(np.ones(32), tg) == pytest.approx(2 * np.pi, rel=1e-14)
    assert abs(interface_sum(np.sin(tg.nodes), tg)) < 1e-13
    assert bulk_sum(np.ones(grids.shape), grids) == pytest.approx(4 * np.pi, rel=1e-14)
    assert l2_interface(np.sin(tg.nodes), tg) == pytest.approx(np.sqrt(np.pi), rel=1e-13)


def test_bulk_sum_of_halves_matches_plain_when_continuous():
    grids = Grids(TangentialGrid(16), NormalGrid(17))
    x, z = grids.meshes()
    v = np.cos(x) ** 2 * (1.0 + z**2)
    assert bulk_sum(halves(v, grids.normal), grids) == pytest.approx(
        bulk_sum(v, grids), rel=1e-13)


def test_bulk_sum_of_halves_counts_interface_row_once_per_side():
    # integrand 1 on the upper side, 0 on the lower: only the upper
    # half-strip (area 2 pi) contributes
    grids = Grids(TangentialGrid(16), NormalGrid(17))
    sided = halves(np.zeros(grids.shape), grids.normal)
    sided[..., 1, :] = 1.0
    assert bulk_sum(sided, grids) == pytest.approx(2 * np.pi, rel=1e-13)


# --------------------------------------------- band-limited random fields

@pytest.mark.parametrize("n_x, n_z", [(16, 9), (64, 65)])
def test_parseval_weights_match_the_bulk_rule(n_x, n_z):
    from stefansim.grids import parseval_weights

    grids = Grids(TangentialGrid(n_x), NormalGrid(n_z))
    rng = np.random.default_rng(5)
    v = rng.standard_normal(grids.shape)  # every mode, the Nyquist mode included
    v_hat = np.fft.rfft(v, axis=0)
    for terms in (((0,),), ((1,),), ((2,),), ((1, 1),),
                  ((0,), (1,)), ((1,), (3,), (4,))):
        ref = 0.0
        for factors in terms:
            ref += bulk_sum(nested_d_tangential(v, factors) ** 2, grids)
        weights = parseval_weights(grids.tangential, grids.normal, terms)
        got = float(np.sum(weights * np.abs(v_hat) ** 2))
        assert got == pytest.approx(ref, rel=1e-13), terms
        assert parseval_weights(grids.tangential, grids.normal, terms) is weights
        assert not weights.flags.writeable


def tail_fraction(v):
    """``tail_fraction_hat`` of the interface field v."""
    return tail_fraction_hat(np.fft.rfft(v), v.size)


def test_spectral_tail_fraction_extremes():
    x = TangentialGrid(32).nodes
    assert tail_fraction(np.sin(2 * x)) < 1e-25
    assert tail_fraction(np.sin(14 * x)) > 0.99
    assert tail_fraction(np.zeros(32)) == 0.0


@given(seed=st.integers(0, 10**6))
def test_band_limited_properties(seed):
    tg = TangentialGrid(48)
    v = band_limited(np.random.default_rng(seed), tg, 0.3)
    assert abs(v.mean()) < 1e-15
    assert np.abs(v).max() == pytest.approx(0.3, rel=1e-12)
    assert tail_fraction(v) < 1e-16


def test_band_limited_seed_determinism():
    tg = TangentialGrid(32)
    a = band_limited(np.random.default_rng(5), tg, 0.1)
    b = band_limited(np.random.default_rng(5), tg, 0.1)
    c = band_limited(np.random.default_rng(6), tg, 0.1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
