"""Deterministic artifacts: hashes, atomic writes, CSV/snapshot round trips."""
import os

import numpy as np
import pytest

from stefansim.functionals import EnergyReport
from stefansim.io import (
    atomic_write_text,
    config_hash,
    energy_csv_text,
    read_energy_csv,
    read_snapshot,
    snapshot_text,
    spectrum_csv_text,
    write_energy_csv,
    write_snapshot,
)
from stefansim.oracles import linearized_spectrum
from stefansim.stepper import SolverConfig, State


def test_config_hash_stability_and_sensitivity():
    a = config_hash(SolverConfig())
    assert a == config_hash(SolverConfig())
    assert len(a) == 16 and all(c in "0123456789abcdef" for c in a)
    assert a != config_hash(SolverConfig(dt=2e-3))
    assert a != config_hash(SolverConfig(k_diag=2))
    # pinned: the header of every energy.csv and snapshot written so far
    assert a == "f0ba5cbe712ca6ac"
    shipped = SolverConfig(epsilon=0.0, dt=1e-3, n_x=64, n_z=65, k_diag=0)
    assert config_hash(shipped) == "22f696fb432d3f3c"  # every file in configs/
    assert config_hash(SolverConfig(epsilon=1e-4, dt=1e-3, n_x=64, n_z=65,
                                    k_diag=2)) == "08abb207df037b17"  # rough-mass-diag
    assert config_hash(SolverConfig(epsilon=1e-3, n_x=32, n_z=257, theta=0.5, dt=0.01,
                                    k_diag=0)) == "9766718f47940d10"  # mms-column


def test_atomic_write_leaves_no_temporaries(tmp_path):
    target = tmp_path / "nested" / "file.txt"
    atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    leftovers = [p for p in os.listdir(tmp_path / "nested") if ".tmp" in p]
    assert leftovers == []
    atomic_write_text(target, "replaced\n")  # overwrite is atomic too
    assert target.read_text() == "replaced\n"


def test_a_failed_atomic_write_leaves_no_temporary(tmp_path):
    # a write that fails (text that is no str) and a rename that fails (the
    # target is a directory) both raise their own error and leave the
    # directory as it was
    target = tmp_path / "tw" / "a.txt"
    atomic_write_text(target, "kept\n")
    with pytest.raises(TypeError):
        atomic_write_text(target, 12345)
    assert os.listdir(tmp_path / "tw") == ["a.txt"] and target.read_text() == "kept\n"
    (tmp_path / "tw" / "d").mkdir()
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "tw" / "d", "payload\n")
    assert sorted(os.listdir(tmp_path / "tw")) == ["a.txt", "d"]


def sample_reports():
    mk = lambda t, ident: EnergyReport(
        t=t, E=1.0 / (1 + t), D=0.5, E_eps=1.1 / (1 + t), D_eps=0.6,
        sobolev_E=2.0, sobolev_D=3.0, cons_residual=1e-12, rho_dev_L2=0.01,
        identity_residual=ident, inner_iters=4)
    return [mk(0.0, None), mk(0.1, 2e-9), mk(0.2, 3e-9)]


def test_energy_csv_roundtrip(tmp_path):
    cfg = SolverConfig(n_x=16, n_z=17)
    reports = sample_reports()
    path = tmp_path / "energy.csv"
    write_energy_csv(path, reports, cfg, seed=11)
    text = path.read_text()
    assert text.startswith(f"# config_hash={config_hash(cfg)}\n# seed=11\n")
    assert (tmp_path / "energy.csv.meta").exists()

    cols = read_energy_csv(path)
    assert set(cols) == set(EnergyReport.CSV_COLUMNS)
    assert np.array_equal(cols["t"], [0.0, 0.1, 0.2])
    assert np.array_equal(cols["E"], [r.E for r in reports])
    assert np.isnan(cols["identity_residual"][0])  # empty cell -> NaN
    assert cols["identity_residual"][1] == 2e-9
    assert np.array_equal(cols["inner_iters"], [4, 4, 4])

    # identical inputs give byte-identical bodies
    assert energy_csv_text(reports, cfg, seed=11) == energy_csv_text(
        reports, cfg, seed=11)


def test_snapshot_roundtrip_bitwise(tmp_path):
    cfg = SolverConfig(n_x=16, n_z=9, dt=1e-3)
    rng = np.random.default_rng(42)
    state = State(t=1.234567890123456789, u=rng.standard_normal((16, 9)),
                  rho=rng.standard_normal(16))
    path = tmp_path / "snap.csv"
    write_snapshot(path, state, cfg)
    loaded, meta = read_snapshot(path)
    # %.17g is repr-faithful for float64: the round trip is exact
    assert loaded.t == state.t
    assert np.array_equal(loaded.u, state.u)
    assert np.array_equal(loaded.rho, state.rho)
    assert meta["config_hash"] == config_hash(cfg)
    assert meta["n_x"] == "16" and meta["n_z"] == "9"
    assert snapshot_text(state, cfg) == snapshot_text(state, cfg)


def test_read_snapshot_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# stefansim snapshot\n# t=0\n")
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_spectrum_csv_layout():
    modes = [linearized_spectrum(k, 101) for k in (1, 2)]
    text = spectrum_csv_text(modes, [0.0, 0.0])
    lines = text.strip().split("\n")
    assert lines[0] == "k,eps," + ",".join(f"re_lambda_{j},im_lambda_{j}" for j in range(1, 7))
    assert len(lines) == 3
    assert all(len(line.split(",")) == 14 for line in lines)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[2]) == pytest.approx(modes[0].leading.real)
