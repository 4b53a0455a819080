"""Strict INI scenario schema and initial-data realization."""
import configparser
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from stefansim.config import (
    OUTPUT_ROOT_ENV,
    SCHEMA,
    Scenario,
    build_initial_data,
    parse_config,
    resolve_out_dir,
    sweep_points,
)
from stefansim.errors import ConfigError
from stefansim.io import write_snapshot
from stefansim.stepper import SolverConfig, State
from stefansim.transform import curvature
from stefansim.verify import DECAY_K1


def write_ini(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


GOOD = """\
[scenario]
rho_modes = 1:0.02, 2:0.01
rho_mean = 0.05
u_init = zero
t_end = 0.5
seed = 7

[solver]
dt = 5e-3
n_x = 16
n_z = 17

[output]
dir = results
compute_identity = true
"""


def test_parse_good_config(tmp_path):
    scen = parse_config(write_ini(tmp_path, GOOD))
    assert scen.name == "case"  # defaults to the file stem
    assert scen.rho_modes == ((1, 0.02), (2, 0.01))
    assert scen.rho_mean == 0.05
    assert scen.u_init == "zero"
    assert scen.t_end == 0.5
    assert scen.seed == 7
    assert scen.solver == SolverConfig(dt=5e-3, n_x=16, n_z=17)
    assert scen.out_dir == "results"
    assert scen.compute_identity is True
    assert scen.sweep_axes == {}


def test_parse_name_override(tmp_path):
    scen = parse_config(write_ini(tmp_path, "[scenario]\nname = alias\nt_end = 1\n"))
    assert scen.name == "alias"


@pytest.mark.parametrize("snippet", [
    "[extra]\nfoo = 1\n",
    "[scenario]\nbogus_key = 1\n",
    "[solver]\nnot_a_field = 1\n",
    "[output]\nbogus = 1\n",
    "[sweep]\nbogus = 1\n",
    "[scenario]\nrho_mean = abc\n",
    "[scenario]\nseed = 1.5\n",
    "[scenario]\nseed = -3\nrho_random_amp = 0.01\nt_end = 1\n",
    "[scenario]\nu_init = random\n",
    "[scenario]\nrho_modes = 1-0.5\n",
    "[output]\ncompute_identity = maybe\n",
    "[solver]\ntheta = 0.2\n",          # SolverConfig rejects it
    "[solver]\ndt = zero\n",
    "[sweep]\nepsilon =\n",             # empty axis list
    # t_end must be a whole number of steps of every dt a run can use
    "[scenario]\nt_end = 0.06\n[solver]\ndt = 0.05\n",
    "[scenario]\nt_end = 0.06\n[solver]\ndt = 0.02\n[sweep]\ndt = 0.02, 0.04\n",
    # solver values the run could not use
    "[solver]\nn_x = 7\n",
    "[solver]\nn_z = 7\n",
    "[solver]\nlin_max_iter = 0\n",
    "[solver]\nfp_max_iter = 0\n",
    "[solver]\nfp_tol = -1\n",
    "[solver]\nlin_tol = 0\n",
    "[solver]\ntrace_tol = 0\n",
    "[solver]\nmax_dt_halvings = -1\n",
    # each value on a sweep axis must make a valid config
    "[scenario]\nt_end = 0.01\n[sweep]\ndt = 0.001, 0\n",
    "[sweep]\nn_x = 16, 7\n",
    "[sweep]\nn_z = 7\n",
    "[sweep]\nepsilon = 0, -1\n",
    # t_end has no default
    "[scenario]\nrho_modes = 1:0.01\n[solver]\ndt = 1e-3\n",
    # a malformed file: a repeated key, a repeated section, a key before any section
    "[scenario]\nt_end = 1\nt_end = 1\n",
    "[scenario]\nt_end = 1\n[scenario]\nseed = 1\n",
    "t_end = 1\n[scenario]\nseed = 1\n",
    # non-finite or out-of-range numbers
    "[scenario]\nt_end = nan\n",
    "[scenario]\nt_end = inf\n",
    "[scenario]\nt_end = -0.01\n",
    "[scenario]\nt_end = 1\n[solver]\ndt = nan\n",
    "[scenario]\nt_end = 1\n[solver]\ndt = inf\n",
    "[scenario]\nt_end = 1\n[solver]\nepsilon = nan\n",
    "[scenario]\nt_end = 1\n[solver]\nepsilon = inf\n",
    "[scenario]\nt_end = 1\nrho_random_amp = nan\n",
    "[scenario]\nt_end = 1\nrho_random_amp = -1\n",
    "[scenario]\nt_end = 1\nrho_mean = nan\n",
    "[scenario]\nt_end = 1\nu_mass = nan\n",
    "[scenario]\nt_end = 1\nrho_modes = 1:0.01, 2:nan\n",
    # wavenumbers the grid cannot hold: zero, the Nyquist mode, and a mode
    # that one point of an n_x sweep axis cannot hold
    "[scenario]\nt_end = 0.01\nrho_modes = 8:0.01\n[solver]\nn_x = 16\nn_z = 17\n",
    "[scenario]\nt_end = 0.01\nrho_modes = 0:0.01\n[solver]\nn_x = 16\nn_z = 17\n",
    "[scenario]\nt_end = 0.01\nrho_modes = 5:0.01\n[solver]\nn_x = 16\nn_z = 17\n"
    "[sweep]\nn_x = 16, 8\n",
    # a snapshot holds u and rho: no key may reshape them
    "[scenario]\nt_end = 1\nu_init = snapshot:s.csv\nrho_modes = 1:0.01\n",
    "[scenario]\nt_end = 1\nu_init = snapshot:s.csv\nrho_mean = 0.2\n",
    "[scenario]\nt_end = 1\nu_init = snapshot:s.csv\nrho_random_amp = 0.01\n",
    "[scenario]\nt_end = 1\nu_init = snapshot:s.csv\nu_mass = 1e-2\n",
])
def test_parse_rejects_bad_configs(tmp_path, snippet):
    with pytest.raises(ConfigError):
        parse_config(write_ini(tmp_path, snippet))


def test_every_shipped_config_parses():
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
    assert paths
    for path in paths:
        assert sweep_points(parse_config(path)), path.name


def test_readme_ini_block_lists_exactly_the_accepted_keys(tmp_path):
    # the README's example config parses, and names, section by section,
    # every key parse_config accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    listed = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    listed.read_string(block)
    assert ({name: set(listed[name]) for name in listed.sections()}
            == {name: set(keys) for name, keys in SCHEMA.items()})
    parse_config(write_ini(tmp_path, block))


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.ini")


def test_shipped_decay_config_matches_builtin_scenario():
    scen = parse_config("configs/decay-k1.ini")
    assert scen.name == DECAY_K1.name
    assert scen.rho_modes == DECAY_K1.rho_modes
    assert scen.u_init == DECAY_K1.u_init
    assert scen.u_mass == DECAY_K1.u_mass
    assert scen.t_end == DECAY_K1.t_end
    assert scen.solver == SolverConfig(epsilon=0.0, dt=1e-3, n_x=64, n_z=65, k_diag=0)


# ------------------------------------------------------------ output dirs

def test_resolve_out_dir(monkeypatch, tmp_path):
    scen = Scenario(name="s", out_dir="out/s")
    monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
    assert resolve_out_dir(scen) == "out/s"
    assert resolve_out_dir(scen, override="elsewhere") == "elsewhere"
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert resolve_out_dir(scen) == str(tmp_path / "out" / "s")
    absolute = str(tmp_path / "abs")
    assert resolve_out_dir(scen, override=absolute) == absolute


# ------------------------------------------------------------------ sweeps

def test_sweep_points_cartesian():
    scen = Scenario(name="s", solver=SolverConfig(n_x=16, n_z=17),
                    sweep_axes={"epsilon": (0.0, 1e-2), "dt": (1e-3, 5e-4, 2e-4)})
    points = sweep_points(scen)
    assert len(points) == 6
    assert {(p.epsilon, p.dt) for p in points} == {
        (e, d) for e in (0.0, 1e-2) for d in (1e-3, 5e-4, 2e-4)}
    assert all(p.n_x == 16 for p in points)  # unswept axes keep base values


def test_sweep_points_single_and_cap():
    base = Scenario(name="s")
    assert sweep_points(base) == [base.solver]
    full = Scenario(name="s", sweep_axes={"epsilon": (0.0, 1e-4, 1e-3, 1e-2),
                                          "dt": (1e-3, 5e-4, 2.5e-4, 1e-4)})
    assert len(sweep_points(full)) == 16
    capped = Scenario(name="s", sweep_axes={"epsilon": (0.0, 1e-4, 1e-2),
                                            "dt": (1e-3, 5e-4, 2.5e-4, 2e-4, 1e-4, 5e-5)})
    with pytest.raises(ConfigError, match="sweep size 18 exceeds job_cap 16"):
        sweep_points(capped)


# ------------------------------------------------------------ initial data

def test_build_initial_data_modes_and_mean():
    scen = Scenario(name="s", rho_modes=((1, 0.02), (2, 0.01)), rho_mean=0.05,
                    u_init="zero", solver=SolverConfig(n_x=32, n_z=17))
    u0, rho0 = build_initial_data(scen)
    x = scen.solver.grids().tangential.nodes
    assert np.abs(rho0 - (0.05 + 0.02 * np.sin(x) + 0.01 * np.sin(2 * x))).max() < 1e-15
    assert np.all(u0 == 0.0)
    # the grid given in place of the scenario's must hold every mode too
    for k in (16, -16, 0):
        bad = dataclasses.replace(scen, rho_modes=((k, 0.01),))
        with pytest.raises(ConfigError, match=f"wavenumber {k} .*n_x=32"):
            build_initial_data(bad)
    high = dataclasses.replace(scen, rho_modes=((-15, 0.01),))
    build_initial_data(high)  # |k| = n_x/2 - 1 is the highest mode held
    with pytest.raises(ConfigError, match="wavenumber -15 .*n_x=16"):
        build_initial_data(high, SolverConfig(n_x=16, n_z=17))


def test_build_initial_data_u_mass_profile():
    scen = Scenario(name="s", u_init="zero", u_mass=1e-2,
                    solver=SolverConfig(n_x=16, n_z=17))
    u0, rho0 = build_initial_data(scen)
    z = scen.solver.grids().normal.nodes[None, :]
    assert np.abs(u0 - 1e-2 * np.sin(np.pi * z) ** 2).max() < 1e-17
    mid = scen.solver.grids().normal.i_mid
    assert np.all(u0[:, mid] == 0.0)  # trace-free: stays compatible


def test_build_initial_data_compatible_trace():
    scen = Scenario(name="s", rho_modes=((1, 0.03),),
                    solver=SolverConfig(n_x=32, n_z=33))
    u0, rho0 = build_initial_data(scen)
    mid = scen.solver.grids().normal.i_mid
    assert np.abs(u0[:, mid] - curvature(rho0)).max() < 1e-12


def test_build_initial_data_seeded_noise_reproducible():
    mk = lambda seed: Scenario(name="s", rho_random_amp=0.05, seed=seed,
                               u_init="zero", solver=SolverConfig(n_x=32, n_z=17))
    _, rho_a = build_initial_data(mk(3))
    _, rho_b = build_initial_data(mk(3))
    _, rho_c = build_initial_data(mk(4))
    assert np.array_equal(rho_a, rho_b)
    assert not np.array_equal(rho_a, rho_c)
    assert np.abs(rho_a).max() == pytest.approx(0.05, rel=1e-12)


def test_build_initial_data_from_snapshot(tmp_path):
    cfg = SolverConfig(n_x=16, n_z=17)
    grids = cfg.grids()
    rng = np.random.default_rng(0)
    state = State(t=0.7, u=rng.standard_normal(grids.shape),
                  rho=0.01 * np.sin(grids.tangential.nodes))
    snap = tmp_path / "checkpoint.csv"
    write_snapshot(snap, state, cfg)

    scen = Scenario(name="s", u_init=f"snapshot:{snap}", solver=cfg)
    u0, rho0 = build_initial_data(scen)
    assert np.array_equal(u0, state.u)
    assert np.array_equal(rho0, state.rho)
    # the keys that shape u0 and rho0 are an error beside a snapshot, at
    # any value but their default, naming the key
    for key, value in (("rho_modes", ((1, 0.05),)), ("rho_mean", 0.2),
                       ("rho_random_amp", 0.01), ("u_mass", 1e-2)):
        with pytest.raises(ConfigError, match=rf"^{key}=.* beside u_init = snapshot:"):
            Scenario(name="s", u_init=f"snapshot:{snap}", solver=cfg, **{key: value})

    mismatched = Scenario(name="s", u_init=f"snapshot:{snap}",
                          solver=SolverConfig(n_x=32, n_z=17))
    with pytest.raises(ConfigError):
        build_initial_data(mismatched)
    # a snapshot of another grid, epsilon or cutoff is rejected, naming the
    # field and both values
    for field, value, stored in (("n_x", 32, "16"), ("n_z", 33, "17"),
                                 ("epsilon", 1e-3, "0")):
        other = Scenario(name="s", u_init=f"snapshot:{snap}",
                         solver=SolverConfig(**{"n_x": 16, "n_z": 17, field: value}))
        with pytest.raises(ConfigError, match=rf"snapshot {field}={stored} .*{field}={value}"):
            build_initial_data(other)
    # the cutoff is a solver constant: a snapshot written with another one
    other_cutoff = tmp_path / "cutoff.csv"
    other_cutoff.write_text(snap.read_text().replace("# alpha=0.25\n", "# alpha=0.2\n"))
    with pytest.raises(ConfigError, match=r"snapshot alpha=0.2 .*alpha=0.25"):
        build_initial_data(Scenario(name="s", u_init=f"snapshot:{other_cutoff}", solver=cfg))
    # a body that disagrees with its own header: one u row short
    short = tmp_path / "short.csv"
    short.write_text("\n".join(snap.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(ConfigError, match=r"snapshot body shape \(15, 17\)"):
        build_initial_data(Scenario(name="s", u_init=f"snapshot:{short}", solver=cfg))


@pytest.mark.parametrize("case, reason", [
    ("missing", "No such file"),
    ("non-numeric", "could not convert string to float"),
    ("ragged", "dimensions"),
    ("no-rows", "contains no data rows"),
    ("header", "does not match solver n_x=16"),
], ids=["missing", "non-numeric", "ragged", "no-rows", "header"])
def test_unreadable_snapshot_is_a_config_error(tmp_path, case, reason):
    # the snapshot file comes from outside: a missing file or a body that
    # does not parse is a ConfigError naming the path, not a traceback
    cfg = SolverConfig(n_x=16, n_z=17)
    snap = tmp_path / "snap.csv"
    if case != "missing":
        write_snapshot(snap, State(t=0.0, u=np.zeros(cfg.grids().shape), rho=np.zeros(16)), cfg)
        head = [line for line in snap.read_text().splitlines() if line.startswith("#")]
        body = snap.read_text().splitlines()[len(head):]
        if case == "non-numeric":
            body[-1] = "zero" + body[-1][1:]
        elif case == "ragged":
            body[-1] = body[-1].rsplit(",", 1)[0]  # one u row a value short
        elif case == "no-rows":
            body = []
        else:
            head = [line.replace("# n_x=16", "# n_x=sixteen") for line in head]
        snap.write_text("\n".join(head + body) + "\n")
    named = "n_x=sixteen " if case == "header" else f"{re.escape(str(snap))}: .*"
    with pytest.raises(ConfigError, match=rf"^snapshot {named}{reason}"):
        build_initial_data(Scenario(name="s", u_init=f"snapshot:{snap}", solver=cfg))
