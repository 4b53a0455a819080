"""Independent reference values: dispersion roots, dense spectrum,
manufactured solutions."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import stefansim
import stefansim.oracles as oracles_module
from stefansim.grids import Grids, NormalGrid, TangentialGrid, d_tangential
from stefansim.oracles import (
    LEADING_RATE_K1,
    ManufacturedProblem,
    curvature_closed_form,
    dispersion_leading_root,
    dispersion_residual,
    linearized_spectrum,
)
from stefansim.transform import Cutoff, coefficients


# ------------------------------------------------------ dispersion roots

def test_pinned_leading_rate():
    assert dispersion_leading_root(1) == LEADING_RATE_K1
    assert dispersion_residual(LEADING_RATE_K1, 1) == pytest.approx(0.0, abs=1e-12)
    assert -1.0 < LEADING_RATE_K1 < 0.0


def test_leading_roots_bracketed_and_ordered():
    roots = [dispersion_leading_root(k) for k in range(1, 9)]
    for k, lam in enumerate(roots, start=1):
        assert -k * k < lam < 0.0
    assert all(b < a for a, b in zip(roots, roots[1:]))  # faster decay at high k


def test_leading_root_monotone_in_eps():
    # regularization only slows the linearized decay
    roots = [dispersion_leading_root(1, eps) for eps in (0.0, 1e-2, 1e-1, 1.0)]
    assert all(b > a for a, b in zip(roots, roots[1:]))
    assert all(r < 0 for r in roots)


@pytest.mark.parametrize("eps", [0.0, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_leading_root_residual_at_roundoff(eps):
    # |F| against the size of its two terms: what rounding alone leaves
    for k in range(1, 33):
        lam = dispersion_leading_root(k, eps)
        assert -k * k < lam < 0.0, (k, eps)
        m = np.sqrt(lam + k * k)
        size = (1.0 + eps * k**4) * abs(lam) + 2.0 * k * k * abs(m * np.tanh(m))
        assert abs(dispersion_residual(lam, k, eps)) <= 1e-13 * size, (k, eps)


def test_dispersion_validation():
    # outside k >= 1, eps >= 0 the bracket (-k^2, 0) need not hold a sign change
    for k, eps in ((0, 0.0), (float("inf"), 0.0), (float("nan"), 0.0),
                   (1, -1.0), (1, -1e-6), (1, float("nan")), (1, float("inf"))):
        with pytest.raises(ValueError):
            dispersion_leading_root(k, eps)
    with pytest.raises(ValueError):
        linearized_spectrum(1, n_z_dense=63)


# --------------------------------------------------------- dense spectrum

def test_dense_spectrum_converges_to_dispersion_root():
    errs = {}
    for n in (101, 201, 401):
        lam = linearized_spectrum(1, n).leading
        assert abs(lam.imag) < 1e-10
        errs[n] = abs(lam.real - LEADING_RATE_K1)
    assert errs[201] < 1e-5
    assert 3.0 < errs[101] / errs[201] < 5.5  # second-order stencils
    assert errs[401] < errs[201]


def test_dense_spectrum_neutral_mode_at_k0():
    # wavenumber 0 carries the conserved-mass mode: exactly neutral
    spec = linearized_spectrum(0, 101)
    assert abs(spec.leading) < 1e-8
    assert spec.matrix_dim == 2 * 101 + 1
    rest = spec.eigenvalues[1:]
    assert np.all(rest.real < -1e-3)  # everything else decays


def test_dense_spectrum_is_stable_and_real_near_top():
    spec = linearized_spectrum(2, 101)
    assert spec.k == 2
    assert np.all(spec.eigenvalues.real < 0)
    assert spec.leading.real == pytest.approx(dispersion_leading_root(2), abs=1e-4)


# ------------------------------------------------------ closed-form curvature

def test_curvature_closed_form_reference_points():
    x = TangentialGrid(64).nodes
    assert np.all(curvature_closed_form(x, 0.0) == 0.0)
    crest = curvature_closed_form(np.array([np.pi / 2]), 0.1, k=1)[0]
    assert crest == pytest.approx(-0.1, rel=1e-14)  # -delta k^2 at the crest
    vals = curvature_closed_form(x, 0.2, k=3)
    assert np.abs(vals + curvature_closed_form(-x, 0.2, k=3)).max() < 1e-14  # odd


# ------------------------------------------------------ manufactured problem

@pytest.fixture(scope="module")
def mms_grids():
    return Grids(TangentialGrid(16), NormalGrid(17))


def test_manufactured_flat_limit_closed_form(mms_grids):
    # with both amplitudes zero the exact solution is e^{-t} cos(pi z):
    # forcing, trace shift, and jump all reduce to closed forms
    mp = ManufacturedProblem(mms_grids, Cutoff(), eps=0.0, u_amp=0.0, rho_amp=0.0)
    t = 0.3
    bulk, trace_shift, jump = mp.at(t)
    z = mms_grids.normal.nodes[None, :]
    ref = (np.pi**2 - 1.0) * np.exp(-t) * np.cos(np.pi * z)
    assert bulk.shape == mms_grids.shape
    assert np.abs(bulk - ref).max() < 1e-14
    assert np.abs(trace_shift - np.exp(-t)).max() < 1e-14
    assert np.abs(jump).max() == 0.0
    u0, rho0 = mp.initial_data()
    assert np.abs(u0 - np.cos(np.pi * z)).max() < 1e-14
    assert np.all(rho0 == 0.0)


def test_manufactured_generic_consistency(mms_grids):
    mp = ManufacturedProblem(mms_grids, Cutoff(), eps=1e-3)
    u0, rho0 = mp.initial_data()
    assert u0.shape == mms_grids.shape and rho0.shape == (16,)
    assert np.array_equal(u0, mp.u_exact(0.0))
    x = mms_grids.tangential.nodes
    assert np.abs(rho0 - 0.05 * np.sin(x)).max() < 1e-15
    # exact time decay: every field carries e^{-t}
    assert np.abs(mp.rho_exact(1.0) - np.exp(-1.0) * rho0).max() < 1e-15

    # closed-form interface derivatives agree with spectral ones (the exact
    # interface is a single resolved mode)
    t = 0.2
    rho_t = -mp.rho_exact(t)  # d/dt of amp e^{-t} sin x
    exact = mp.exact_coefficients(t)
    rho = mp.rho_exact(t)
    spectral = coefficients(rho, rho_t, Cutoff(), mms_grids,
                            rho_x=d_tangential(rho, 1), rho_xx=d_tangential(rho, 2))
    assert np.abs(exact.a - spectral.a).max() < 1e-13
    assert np.abs(exact.c - spectral.c).max() < 1e-13

    bulk, trace_shift, jump = mp.at(t)
    assert bulk.shape == mms_grids.shape
    assert trace_shift.shape == (16,) and jump.shape == (16,)
    # eps enters the jump forcing only through the bilaplacian term
    mp0 = ManufacturedProblem(mms_grids, Cutoff(), eps=0.0)
    jump0 = mp0.at(t)[2]
    assert np.abs(jump - jump0 - 1e-3 * (-mp.rho_exact(t))).max() < 1e-15


_X, _Z, _T = sp.symbols("x z t", real=True)


def symbolic_fields(u_amp, rho_amp, eps):
    """The manufactured fields and their derivatives, differentiated by
    sympy, as numpy functions of (x, z, t)."""
    u = sp.exp(-_T) * sp.cos(sp.pi * _Z) * (1 + u_amp * sp.cos(_X))
    rho = rho_amp * sp.exp(-_T) * sp.sin(_X)
    rho_x = sp.diff(rho, _X)
    rho_t = sp.diff(rho, _T)
    # u is smooth across z = 0: the jump in its normal derivative is zero
    assert sp.simplify(sp.diff(u, _Z).subs(_Z, 0)) == 0
    exprs = {
        "u": u, "u_t": sp.diff(u, _T), "u_xx": sp.diff(u, _X, 2),
        "u_z": sp.diff(u, _Z), "u_zz": sp.diff(u, _Z, 2), "u_xz": sp.diff(u, _X, _Z),
        "rho": rho, "rho_t": rho_t, "rho_x": rho_x, "rho_xx": sp.diff(rho, _X, 2),
        "kappa": sp.diff(rho_x / sp.sqrt(1 + rho_x**2), _X),
        "jump": rho_t + eps * sp.diff(rho_t, _X, 4),
    }
    return {name: sp.lambdify((_X, _Z, _T), expr, modules="numpy")
            for name, expr in exprs.items()}


@pytest.mark.parametrize("n_x, n_z", [(16, 17), (32, 257)])
def test_manufactured_closed_forms_match_symbolic_derivatives(n_x, n_z):
    grids = Grids(TangentialGrid(n_x), NormalGrid(n_z))
    mp = ManufacturedProblem(grids, Cutoff(), eps=1e-3)
    fns = symbolic_fields(mp.u_amp, mp.rho_amp, mp.eps)
    xm, zm = grids.meshes()
    x = grids.tangential.nodes
    for t in (0.0, 0.01, 0.37):
        bulk_ref = {name: np.broadcast_to(fns[name](xm, zm, t), grids.shape)
                    for name in ("u", "u_t", "u_xx", "u_z", "u_zz", "u_xz")}
        line_ref = {name: np.broadcast_to(fns[name](x, 0.0, t), x.shape)
                    for name in ("u", "rho", "rho_t", "rho_x", "rho_xx", "kappa", "jump")}
        coef = coefficients(line_ref["rho"], line_ref["rho_t"], Cutoff(), grids,
                            rho_x=line_ref["rho_x"], rho_xx=line_ref["rho_xx"])
        bulk, trace_shift, jump = mp.at(t)
        exact = mp.exact_coefficients(t)
        pairs = {
            "bulk": (bulk, bulk_ref["u_t"] - bulk_ref["u_xx"] - coef.a * bulk_ref["u_zz"]
                     + coef.B * bulk_ref["u_xz"] + coef.c * bulk_ref["u_z"]),
            "trace_shift": (trace_shift, line_ref["u"] - line_ref["kappa"]),
            "jump": (jump, line_ref["jump"]),
            "u": (mp.u_exact(t), bulk_ref["u"]),
            "rho": (mp.rho_exact(t), line_ref["rho"]),
            "a": (exact.a, coef.a), "B": (exact.B, coef.B), "c": (exact.c, coef.c),
            "bracket": (exact.bracket, coef.bracket),
        }
        for name, (got, ref) in pairs.items():
            assert got.shape == ref.shape, (name, t)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), (name, t)


def package_env():
    """The environment of a subprocess that imports this stefansim."""
    src = str(Path(stefansim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("module", ["sympy", "scipy.optimize", "scipy.sparse.linalg",
                                    "scipy.linalg"])
def test_runtime_package_does_not_import_sympy(module, tmp_path):
    # sympy is a test dependency only: the package builds its manufactured
    # solution from closed forms; scipy.sparse.linalg by nothing (a stalled
    # solve goes on by GCR steps in numpy), scipy.linalg only by the dense
    # eigensolve of ``linearized_spectrum`` (the bulk LU calls numpy's
    # LAPACK), and scipy.optimize by nothing: not by the dispersion root,
    # nor by the K2_oracle line of a single-mode run's summary.  Each would
    # add 20-30 MB to every run.
    code = "import sys, stefansim, stefansim.cli, stefansim.oracles\n"
    if module in ("scipy.optimize", "scipy.linalg"):
        config, out = tmp_path / "k2.ini", tmp_path / "out"
        config.write_text("[scenario]\nname = k2\nrho_modes = 2:1e-3\nt_end = 0.02\n"
                          "[solver]\nn_x = 16\nn_z = 17\ndt = 1e-3\n")
        code += (
            "for k, eps in ((1, 0.0), (3, 1e-2), (8, 1.0), (32, 1e6)):\n"
            "    assert -k * k < stefansim.oracles.dispersion_leading_root(k, eps) < 0\n"
            f"assert stefansim.cli.main(['run', '--config', {str(config)!r}, "
            f"'--out', {str(out)!r}]) == 0\n")
    code += f"sys.exit({module!r} in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    if module in ("scipy.optimize", "scipy.linalg"):
        assert "K2_oracle=" in (tmp_path / "out" / "summary.txt").read_text()


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB only on Linux")
def test_runtime_package_adds_little_memory_to_numpy():
    # peak RSS (ru_maxrss) of importing the package and its CLI over a bare
    # numpy import, each in a fresh process.  A process's ru_maxrss starts
    # at the peak of the process it was forked from, so each is forked
    # from a small launcher, not from this test's process.  Measured on
    # Linux x86-64 with numpy 2.4.6: +8.1 MB (numpy alone 26.8 MB), a
    # margin of 1.9 MB; with scipy.linalg loaded at import, as before the
    # bulk LU called numpy's LAPACK, +30.5 MB.
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"

    def peak_kib(imports):
        code = f"import resource, {imports}\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
        done = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", code],
                              env=package_env(), capture_output=True, text=True, check=True)
        return int(done.stdout)

    added_mb = (peak_kib("numpy, stefansim, stefansim.cli") - peak_kib("numpy")) / 1024.0
    assert added_mb < 10.0, added_mb


def test_oracles_do_not_import_solver_modules():
    # reference values must come from an independent route: no imports
    # from the stepping/diagnostic machinery they are used to check
    src = Path(oracles_module.__file__).read_text()
    import_lines = [line for line in src.splitlines()
                    if line.startswith(("import ", "from "))]
    for banned in ("stepper", "functionals", "identity", "verify", "cli", "io"):
        assert not any(f".{banned}" in line or f" {banned}" in line
                       for line in import_lines), banned
