"""End-to-end command-line behavior, run in process via main(argv)."""
import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from stefansim import cli
from stefansim.cli import build_parser, main
from stefansim.io import read_energy_csv
from stefansim.stepper import SolverConfig

from conftest import HALVING_STALL_DT, stall_above

FAST_RUN = """\
[scenario]
rho_modes = 1:0.01
u_init = compatible
t_end = 5e-3

[solver]
dt = 1e-3
n_x = 16
n_z = 17
k_diag = 0

[output]
dir = {out}
"""

SWEEP_3EPS = FAST_RUN + """
[sweep]
epsilon = 1e-2, 1e-4, 0.0
"""

# a run whose dt halves twice, to 0.01, once every temperature solve at a dt
# above HALVING_STALL_DT is made to stall (``conftest.stall_above``); left
# alone, it ends at its own dt = 0.04
HALVING_RUN = """\
[scenario]
rho_modes = 1:0.1
u_init = zero
t_end = 0.08

[solver]
dt = 0.04
n_x = 32
n_z = 33
k_diag = 0

[output]
dir = {out}
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("STEFANSIM_OUT", str(tmp_path))
    return tmp_path


def write_config(workdir, text, name="scenario.ini", out="results"):
    path = workdir / name
    path.write_text(text.format(out=out))
    return path


def test_run_writes_all_artifacts(workdir, capsys):
    cfg_path = write_config(workdir, FAST_RUN)
    assert main(["run", "--config", str(cfg_path)]) == 0
    out = workdir / "results"
    for name in ("energy.csv", "energy.csv.meta", "final_snapshot.csv",
                 "final_snapshot.csv.meta", "summary.txt", "summary.txt.meta"):
        assert (out / name).exists(), name
    summary = (out / "summary.txt").read_text()
    assert "steps=5" in summary
    assert "energy_monotone=yes" in summary
    assert "K2_hat=" in summary and "K2_oracle=" in summary
    assert summary == capsys.readouterr().out  # echoed verbatim
    cols = read_energy_csv(out / "energy.csv")
    assert cols["t"].size == 6
    assert np.all(np.isnan(cols["identity_residual"]))  # disabled by default


def test_run_bodies_are_deterministic(workdir):
    cfg_a = write_config(workdir, FAST_RUN, name="a.ini", out="o1")
    cfg_b = write_config(workdir, FAST_RUN, name="b.ini", out="o2")
    assert main(["run", "--config", str(cfg_a), "--quiet"]) == 0
    assert main(["run", "--config", str(cfg_b), "--quiet"]) == 0
    for name in ("energy.csv", "final_snapshot.csv"):
        assert ((workdir / "o1" / name).read_bytes()
                == (workdir / "o2" / name).read_bytes()), name


def test_run_seed_flag_overrides_config(workdir):
    cfg_path = write_config(workdir, FAST_RUN)
    assert main(["run", "--config", str(cfg_path), "--quiet", "--jobs", "2"]) == 2  # sweep only
    assert main(["run", "--config", str(cfg_path), "--quiet", "--seed", "5"]) == 0
    header = (workdir / "results" / "energy.csv").read_text().splitlines()[1]
    assert header == "# seed=5"


def test_run_rejects_malformed_config(workdir, capsys):
    bad = workdir / "bad.ini"
    bad.write_text("[scenario]\nt_end = soon\n[output]\ndir = bad_out\n")
    assert main(["run", "--config", str(bad), "--quiet"]) == 2
    assert not (workdir / "bad_out").exists()
    assert "config error" in capsys.readouterr().err


def test_t_end_off_the_step_grid_is_a_usage_error(workdir, capsys):
    off_grid = FAST_RUN.replace("t_end = 5e-3", "t_end = 5.5e-3")
    assert main(["run", "--config", str(write_config(workdir, off_grid, out="r")),
                 "--quiet"]) == 2
    assert "t_end=0.0055" in capsys.readouterr().err
    # a sweep rejects a bad dt axis before any of its points runs
    sweep = FAST_RUN + "\n[sweep]\ndt = 1e-3, 2e-3\n"
    assert main(["sweep", "--config", str(write_config(workdir, sweep, out="s")),
                 "--quiet"]) == 2
    assert "dt=0.002" in capsys.readouterr().err
    assert not (workdir / "r").exists() and not (workdir / "s").exists()


def _solver_line(line):
    return FAST_RUN.replace("k_diag = 0\n", f"k_diag = 0\n{line}\n")


@pytest.mark.parametrize("verb, text", [
    ("run", FAST_RUN.replace("n_x = 16", "n_x = 7")),
    ("run", FAST_RUN.replace("n_z = 17", "n_z = 7")),
    ("run", _solver_line("lin_max_iter = 0")),
    ("run", _solver_line("fp_max_iter = 0")),
    ("run", _solver_line("fp_tol = -1")),
    ("run", FAST_RUN.replace("t_end = 5e-3\n", "")),
    ("sweep", FAST_RUN + "\n[sweep]\ndt = 0\n"),
    ("sweep", FAST_RUN + "\n[sweep]\nn_x = 7\n"),
    ("sweep", FAST_RUN + "\n[sweep]\nepsilon = -1\n"),
    ("run", FAST_RUN + "\n[scenario]\nseed = 1\n"),
    ("run", FAST_RUN.replace("rho_modes = 1:0.01", "rho_modes = 8:0.01")),
    ("sweep", FAST_RUN.replace("rho_modes = 1:0.01", "rho_modes = 5:0.01")
     + "\n[sweep]\nn_x = 16, 8\n"),
    ("run", FAST_RUN.replace("u_init = compatible", "u_init = snapshot:snap.csv")),
], ids=["n_x=7", "n_z=7", "lin_max_iter=0", "fp_max_iter=0", "fp_tol=-1",
        "no-t_end", "sweep-dt=0", "sweep-n_x=7", "sweep-epsilon=-1", "repeated-section",
        "rho_modes=8", "sweep-n_x-below-mode", "rho_modes-beside-snapshot"])
def test_unusable_solver_values_are_config_errors(workdir, capsys, verb, text):
    cfg_path = write_config(workdir, text, out="never")
    assert main([verb, "--config", str(cfg_path), "--quiet"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (workdir / "never").exists()


@pytest.mark.parametrize("body", [None, "not,a,number\n"], ids=["missing", "non-numeric"])
def test_unreadable_snapshot_is_a_config_error(workdir, capsys, body):
    snap = workdir / "snap.csv"
    if body is not None:
        snap.write_text(body)
    text = FAST_RUN.replace("rho_modes = 1:0.01\n", "").replace(
        "u_init = compatible", f"u_init = snapshot:{snap}")
    cfg_path = write_config(workdir, text, out="never")
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 2
    assert f"config error: snapshot {snap}: " in capsys.readouterr().err
    assert not (workdir / "never").exists()


def test_two_step_run_writes_its_summary(workdir):
    # too few reports for a decay fit: the summary says so instead of failing
    short = FAST_RUN.replace("t_end = 5e-3", "t_end = 2e-3")
    assert main(["run", "--config", str(write_config(workdir, short)), "--quiet"]) == 0
    summary = (workdir / "results" / "summary.txt").read_text()
    assert "steps=2" in summary
    assert "decay_fit=degenerate" in summary
    assert "K2_hat=" not in summary


def test_run_failure_leaves_no_partial_output(workdir, capsys, monkeypatch):
    # with retries disabled the run raises, the CLI reports exit 1, and
    # nothing is written
    monkeypatch.setattr(SolverConfig, "max_dt_halvings", 0)
    stall_above(monkeypatch, HALVING_STALL_DT)
    cfg_path = write_config(workdir, HALVING_RUN, out="doomed")
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 1
    assert not (workdir / "doomed").exists()
    assert "run failed: step 1 (t=0.04): temperature solve stalled" in capsys.readouterr().err


@pytest.mark.parametrize("u_init", ["zero", "compatible"])
def test_degenerate_initial_interface_names_step_zero(workdir, capsys, u_init):
    # sup |rho| = 0.3 is past the flattening bound: the compatible steady
    # solve fails before run starts, the zero start in run's initial report;
    # both name the initial level
    degenerate = FAST_RUN.replace("rho_modes = 1:0.01", "rho_modes = 1:0.3").replace(
        "u_init = compatible", f"u_init = {u_init}")
    cfg_path = write_config(workdir, degenerate, out="degenerate")
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 1
    assert not (workdir / "degenerate").exists()
    assert "run failed: step 0 (t=0.0): flattening map degenerate" in capsys.readouterr().err


def test_spectrum_table(workdir, capsys):
    assert main(["spectrum", "--k", "0:2", "--eps", "0", "--n-dense", "101",
                 "--quiet"]) == 0
    lines = (workdir / "out" / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0].startswith("k,eps,re_lambda_1,im_lambda_1")
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    leading = [float(r[2]) for r in rows]
    assert abs(leading[0]) < 1e-8            # conserved-mass neutral mode
    assert leading[0] > leading[1] > leading[2]  # faster decay at higher k


def test_spectrum_argument_validation(workdir, capsys):
    assert main(["spectrum", "--k", "", "--quiet"]) == 2
    assert main(["spectrum", "--k", "1,x", "--quiet"]) == 2
    assert main(["spectrum", "--k", "1", "--eps", "", "--quiet"]) == 2
    assert main(["spectrum", "--k", "1", "--seed", "1", "--quiet"]) == 2
    assert main(["spectrum", "--k", "1", "--jobs", "2", "--quiet"]) == 2
    capsys.readouterr()


def test_spectrum_rejects_a_reversed_k_range(workdir, capsys):
    # a range that runs backwards is a config error naming it, not an
    # empty range dropped in silence
    assert main(["spectrum", "--k", "1,5:2", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'5:2'" in err
    assert not list(workdir.rglob("spectrum.csv"))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--k", "1", "--n-dense", "10"],
    ["spectrum", "--k", "1", "--eps", "-1"],
    ["run", "--seed", "-3"],
    ["spectrum", "--k", "1", "--eps", "nan"],
    ["spectrum", "--k", "1", "--eps", "0,inf"],
], ids=["n-dense=10", "eps=-1", "seed=-3", "eps=nan", "eps=inf"])
def test_bad_command_line_values_are_config_errors(workdir, capsys, argv):
    # rejected before any work: exit 2 with a config error, no traceback
    noisy = FAST_RUN.replace("t_end", "rho_random_amp = 0.01\nt_end")
    if argv[0] == "run":
        argv = argv + ["--config", str(write_config(workdir, noisy, out="never"))]
    assert main(argv + ["--quiet"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (workdir / "never").exists() and not (workdir / "out").exists()


def test_verify_suite_exit_codes(capsys):
    assert main(["verify", "norms"]) == 0
    assert "[PASS] suite=norms" in capsys.readouterr().out
    assert main(["verify", "bogus"]) == 2  # argparse rejects the choice
    # --jobs and --seed exist only on the verbs that use them
    assert main(["verify", "--jobs", "2", "norms"]) == 2
    assert main(["verify", "--seed", "1", "norms"]) == 2


@pytest.mark.parametrize("flags", [["--quiet"], ["--out", "never"]], ids=["quiet", "out"])
def test_verify_rejects_the_output_flags_it_would_ignore(workdir, capsys, flags):
    # verify writes no artifact and always prints its report
    assert main(["verify", *flags, "norms"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""
    assert not (workdir / "never").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(workdir, capsys, jobs):
    cfg_path = write_config(workdir, SWEEP_3EPS, out="never")
    assert main(["sweep", "--config", str(cfg_path), "--quiet", "--jobs", jobs]) == 2
    assert f"config error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (workdir / "never").exists()


def test_readme_synopsis_lists_exactly_each_verbs_flags():
    # the README's command-line synopsis names, verb by verb, every option
    # of that verb's subparser, -h/--help aside
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```\n", 2)[1]
    listed = {}
    for line in block.splitlines():
        _, verb, rest = line.split(None, 2)
        listed[verb] = set(re.findall(r"--[a-z][a-z-]*", rest))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {verb: {opt for action in p._actions for opt in action.option_strings}
                - {"-h", "--help"} for verb, p in sub.choices.items()}
    assert listed == accepted


def test_sweep_single_point_matches_run(workdir):
    cfg_run = write_config(workdir, FAST_RUN, name="r.ini", out="direct")
    cfg_sweep = write_config(workdir, FAST_RUN, name="s.ini", out="swept")
    assert main(["run", "--config", str(cfg_run), "--quiet"]) == 0
    assert main(["sweep", "--config", str(cfg_sweep), "--quiet"]) == 0
    summary = (workdir / "swept" / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "label,epsilon,dt,n_x,n_z,E_final,max_cons_residual"
    assert len(summary) == 2
    label = summary[1].split(",")[0]
    assert label == "eps=0_dt=0.001_nx=16_nz=17"
    assert ((workdir / "swept" / label / "energy.csv").read_bytes()
            == (workdir / "direct" / "energy.csv").read_bytes())
    assert not (workdir / "swept" / "epsilon_table.csv").exists()


def test_halving_run_ends_at_its_own_dt_when_nothing_stalls(workdir):
    # the lag loop's two alternating sweeps converge at dt = 0.04 on this
    # interface, so the config the halving tests force to stall needs no
    # halving of its own
    cfg_path = write_config(workdir, HALVING_RUN, out="direct")
    assert main(["run", "--config", str(cfg_path), "--quiet"]) == 0
    summary = dict(line.split("=", 1) for line in
                   (workdir / "direct" / "summary.txt").read_text().splitlines())
    assert float(summary["dt_final"]) == 0.04 and summary["steps"] == "2"
    times = read_energy_csv(workdir / "direct" / "energy.csv")["t"]
    assert np.array_equal(times, [0.0, 0.04, 0.08])


def test_sweep_point_after_a_dt_halving_matches_run(workdir, monkeypatch):
    stall_above(monkeypatch, HALVING_STALL_DT)
    cfg_run = write_config(workdir, HALVING_RUN, name="r.ini", out="direct")
    cfg_sweep = write_config(workdir, HALVING_RUN, name="s.ini", out="swept")
    assert main(["run", "--config", str(cfg_run), "--quiet"]) == 0
    assert "dt_final=0.01\n" in (workdir / "direct" / "summary.txt").read_text()
    assert main(["sweep", "--config", str(cfg_sweep), "--quiet"]) == 0
    # the summary row keeps the requested point, which its label names;
    # the point's energy.csv is the run's, written at the halved dt
    row = (workdir / "swept" / "sweep_summary.csv").read_text().splitlines()[1].split(",")
    label = "eps=0_dt=0.04_nx=32_nz=33"
    assert row[0] == label and float(row[2]) == 0.04
    assert ((workdir / "swept" / label / "energy.csv").read_bytes()
            == (workdir / "direct" / "energy.csv").read_bytes())


def test_sweep_epsilon_table_parallel(workdir):
    cfg_path = write_config(workdir, SWEEP_3EPS, out="sweep3")
    assert main(["sweep", "--config", str(cfg_path), "--quiet", "--jobs", "2"]) == 0
    out = workdir / "sweep3"
    summary = (out / "sweep_summary.csv").read_text().splitlines()
    assert len(summary) == 4
    eps_col = [float(line.split(",")[1]) for line in summary[1:]]
    assert eps_col == sorted(eps_col, reverse=True)
    table = (out / "epsilon_table.csv").read_text().splitlines()
    assert table[0] == "dt,n_x,n_z,eps_hi,eps_lo,sup_E_distance"
    assert len(table) == 3  # consecutive pairs: (1e-2, 1e-4), (1e-4, 0)
    pairs = [(float(r.split(",")[3]), float(r.split(",")[4])) for r in table[1:]]
    assert pairs == [(1e-2, 1e-4), (1e-4, 0.0)]
    dists = [float(r.split(",")[5]) for r in table[1:]]
    assert all(d >= 0 for d in dists)
    for line in summary[1:]:
        label = line.split(",")[0]
        assert (out / label / "energy.csv").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failed_sweep_point_names_itself(workdir, capsys, monkeypatch, jobs):
    # the dt = 0.08 point still fails after two halvings, at dt = 0.02; with
    # two jobs it fails in a forked worker, which inherits the forced stall
    # (the message is the stall's own)
    stall_above(monkeypatch, HALVING_STALL_DT)
    text = HALVING_RUN + "\n[sweep]\ndt = 0.01, 0.08\n"
    cfg_path = write_config(workdir, text, out="failing")
    assert main(["sweep", "--config", str(cfg_path), "--quiet", "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert ("run failed: sweep point eps=0_dt=0.08_nx=32_nz=33: step 1 (t=0.02): "
            "temperature solve stalled") in err
    assert "stalled: forced at dt=0.02 > 0.015" in err
    # the dt = 0.01 point succeeded, but a failed sweep leaves no output:
    # no point directory, no staging directory, and no output directory
    # it made itself
    assert not (workdir / "failing").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failed_sweep_keeps_an_earlier_sweeps_output(workdir, monkeypatch, jobs):
    # the failing sweep's points are staged, so the points an earlier
    # sweep left in the same directory stay as they were
    stall_above(monkeypatch, HALVING_STALL_DT)
    ok = write_config(workdir, HALVING_RUN + "\n[sweep]\ndt = 0.01\n", name="ok.ini", out="kept")
    assert main(["sweep", "--config", str(ok), "--quiet"]) == 0
    out = workdir / "kept"
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    bad = write_config(workdir, HALVING_RUN + "\n[sweep]\ndt = 0.01, 0.08\n", name="bad.ini",
                       out="kept")
    assert main(["sweep", "--config", str(bad), "--quiet", "--jobs", jobs]) == 1
    after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert after == before
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["eps=0_dt=0.01_nx=32_nz=33"]


def test_sweep_respects_job_cap(workdir, capsys):
    # 3 epsilon x 6 dt = 18 points, above the cap of 16
    text = SWEEP_3EPS + "dt = 1e-3, 5e-4, 2.5e-4, 1.25e-4, 1e-4, 5e-5\n"
    cfg_path = write_config(workdir, text, out="capped")
    assert main(["sweep", "--config", str(cfg_path), "--quiet"]) == 2
    assert "job_cap" in capsys.readouterr().err
    assert not (workdir / "capped").exists()


@pytest.mark.parametrize("axis", ["1e-4, 1.0000001e-4", "1e-4, 1e-4"],
                         ids=["same-label", "repeated-value"])
def test_sweep_rejects_points_that_share_a_label(workdir, capsys, monkeypatch, axis):
    # two points, one directory: rejected before any point runs
    monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a sweep point ran"))
    cfg_path = write_config(workdir, FAST_RUN + f"\n[sweep]\nepsilon = {axis}\n", out="never")
    assert main(["sweep", "--config", str(cfg_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "eps=0.0001_dt=0.001_nx=16_nz=17" in err
    assert not (workdir / "never").exists()


def test_sweep_starts_at_most_one_worker_per_point(workdir, monkeypatch):
    # a stand-in for the pool records its size and maps in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    for jobs in ("64", "2"):
        cfg_path = write_config(workdir, SWEEP_3EPS, out=f"jobs{jobs}")
        assert main(["sweep", "--config", str(cfg_path), "--quiet", "--jobs", jobs]) == 0
    assert sizes == [3, 2]


@pytest.mark.parametrize("argv, bodies", [
    (["run"], ["energy.csv", "final_snapshot.csv", "summary.txt"]),
    (["sweep"], ["epsilon_table.csv", "eps=0.0001_dt=0.001_nx=16_nz=17/energy.csv",
                 "eps=0.01_dt=0.001_nx=16_nz=17/energy.csv",
                 "eps=0_dt=0.001_nx=16_nz=17/energy.csv", "sweep_summary.csv"]),
    (["spectrum", "--k", "0:1", "--eps", "0,1e-2", "--n-dense", "101"], ["spectrum.csv"]),
], ids=["run", "sweep", "spectrum"])
def test_every_artifact_has_a_sidecar_and_a_stable_body(workdir, argv, bodies):
    if argv[0] != "spectrum":
        argv = argv + ["--config", str(write_config(workdir, SWEEP_3EPS, out="out"))]
    out = workdir / "out"

    def written():
        files = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
        assert sorted(files) == sorted(bodies + [f"{body}.meta" for body in bodies])
        # no directory beyond those of the bodies (a sweep's staging area is gone)
        assert ({p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_dir()}
                == {body.rpartition("/")[0] for body in bodies} - {""})
        return {body: (files[body].read_bytes(), files[body].stat().st_ino) for body in bodies}

    assert main(argv + ["--quiet"]) == 0
    first = written()
    assert main(argv + ["--quiet"]) == 0
    for body, (data, inode) in written().items():
        # a new file (the atomic rename), with the same bytes
        assert inode != first[body][1] and data == first[body][0], body
