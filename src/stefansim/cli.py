"""Command-line entry point: run, spectrum, verify, sweep.

Exit codes: 0 success, 1 runtime/threshold failure, 2 config/usage error.
Output bodies are deterministic for a fixed config and seed; wall-clock
metadata goes to ``.meta`` sidecars.  $STEFANSIM_OUT, when set, is the
root for relative output directories.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import Scenario, build_initial_data, parse_config, resolve_out_dir, sweep_points
from .errors import ConfigError, StefanSimError
from .functionals import DECAY_MIN_SAMPLES, decay_fit
from .io import spectrum_csv_text, write_artifact, write_energy_csv, write_snapshot
from .oracles import MIN_DENSE_NODES, dispersion_leading_root, linearized_spectrum
from .stepper import run
from .verify import SUITES

STEADY_TOL = 1e-10
MONO_TOL = 1e-6


def _summarize(scenario, result):
    reports = result.reports
    lines = [f"scenario={scenario.name}",
             f"steps={len(reports) - 1}",
             f"t_final={reports[-1].t:.17g}",
             f"epsilon={result.cfg.epsilon:.17g}",
             f"dt_final={result.cfg.dt:.17g}",
             f"steady_level={result.steady_level:.17g}"]
    E = np.array([r.E for r in reports])
    dev = np.array([r.rho_dev_L2 for r in reports])
    times = np.array([r.t for r in reports])
    worst_cons = max((r.cons_residual for r in reports[1:]), default=0.0)
    lines.append(f"max_cons_residual={worst_cons:.17g}")
    mono = bool(np.all(E[2:] <= E[1:-1] * (1.0 + MONO_TOL))) if len(E) > 2 else True
    lines.append(f"energy_monotone={'yes' if mono else 'no'}")
    steady = float((E + dev).max()) <= STEADY_TOL
    lines.append(f"steady_within_tolerance={'yes' if steady else 'no'}")
    fit = decay_fit(times, E + dev**2) if len(reports) >= DECAY_MIN_SAMPLES else None
    if fit is None or fit.degenerate:
        lines.append("decay_fit=degenerate")
    else:
        lines.append(f"K2_hat={fit.rate:.17g}")
        lines.append(f"fit_r_squared={fit.r_squared:.17g}")
        # one interface mode and no noise: the late-time rate has a
        # semi-analytic prediction.  A u_mass heat component is fine --
        # its slowest decay, (pi/2)^2 per phase, outruns the interface
        # modes of interest.
        if len(scenario.rho_modes) == 1 and scenario.rho_random_amp == 0:
            k = scenario.rho_modes[0][0]
            oracle = 2.0 * abs(dispersion_leading_root(k, result.cfg.epsilon))
            lines.append(f"K2_oracle={oracle:.17g}")
            lines.append(f"K2_relative_gap={abs(fit.rate - oracle) / oracle:.17g}")
    return "\n".join(lines) + "\n"


def _load_scenario(args):
    """The scenario of ``--config``, with ``--seed`` in place of its seed when given."""
    scenario = parse_config(args.config)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


def _run_point(scenario, cfg, out_dir):
    """Run ``scenario`` at ``cfg`` and write its ``energy.csv`` into ``out_dir``.

    The CSV carries the run's final cfg (dt after any halving) and the
    scenario's seed.  Returns the run's result.
    """
    u0, rho0 = build_initial_data(scenario, cfg)
    result = run(u0, rho0, cfg, scenario.t_end, compute_identity=scenario.compute_identity)
    write_energy_csv(os.path.join(out_dir, "energy.csv"), result.reports, result.cfg,
                     seed=scenario.seed)
    return result


def cmd_run(args):
    scenario = _load_scenario(args)
    out_dir = resolve_out_dir(scenario, args.out)
    result = _run_point(scenario, scenario.solver, out_dir)
    write_snapshot(os.path.join(out_dir, "final_snapshot.csv"), result.state,
                   result.cfg)
    summary = _summarize(scenario, result)
    write_artifact(os.path.join(out_dir, "summary.txt"), summary)
    if not args.quiet:
        print(summary, end="")
    return 0


def _parse_k_values(raw):
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            lo, hi = (int(v) for v in tok.split(":", 1))
            if hi < lo:
                raise ValueError(f"k range {tok!r} runs backwards")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(tok))
    return sorted(set(out))


def cmd_spectrum(args):
    try:
        k_values = _parse_k_values(args.k)
        eps_values = [float(t) for t in args.eps.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad spectrum arguments: {exc}") from None
    if not k_values or not eps_values:
        raise ConfigError("spectrum needs a non-empty k range and eps list")
    if any(k < 0 for k in k_values):
        raise ConfigError("wavenumbers must be >= 0")
    if not all(0.0 <= eps < np.inf for eps in eps_values):
        raise ConfigError("eps values must be finite and >= 0")
    if args.n_dense < MIN_DENSE_NODES:
        raise ConfigError(f"--n-dense must be >= {MIN_DENSE_NODES}, got {args.n_dense}")
    modes, eps_col = [], []
    for eps in eps_values:
        for k in k_values:
            modes.append(linearized_spectrum(k, n_z_dense=args.n_dense, eps=eps))
            eps_col.append(eps)
    text = spectrum_csv_text(modes, eps_col)
    out_dir = resolve_out_dir(Scenario(name="spectrum"), args.out)
    write_artifact(os.path.join(out_dir, "spectrum.csv"), text)
    if not args.quiet:
        print(text, end="")
    return 0


def cmd_verify(args):
    suite = SUITES[args.suite]()
    print(suite.report())
    return 0 if suite.passed else 1


def _sweep_worker(payload):
    """Run one sweep point; an error it raises keeps its type (so its exit
    code) and its message begins with the point's label."""
    scenario, cfg, out_dir, label = payload
    try:
        reports = _run_point(scenario, cfg, os.path.join(out_dir, label)).reports
    except StefanSimError as exc:
        exc.args = (f"sweep point {label}: {exc.args[0]}",) + exc.args[1:]
        raise
    worst_cons = max((r.cons_residual for r in reports[1:]), default=0.0)
    return label, cfg, [r.E for r in reports], worst_cons


def _run_sweep_points(scenario, points, labels, out_dir, jobs):
    """Run every sweep point and return their results in order.

    The points write into a staging directory under ``out_dir``, and each
    point's directory is renamed into place, over any earlier one, only
    once every point has succeeded; the staging directory is removed
    either way, and so is ``out_dir`` if this sweep made it and a point
    failed, so a failed sweep leaves no partial output."""
    made = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".sweep-", dir=out_dir)
    payloads = [(scenario, cfg, staging, label) for cfg, label in zip(points, labels)]
    results = None
    try:
        if jobs > 1 and len(payloads) > 1:
            # the fork start method starts every worker at the first submit;
            # leaving the block waits for them all
            with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
                results = list(pool.map(_sweep_worker, payloads))
        else:
            results = [_sweep_worker(p) for p in payloads]
        for label in labels:
            point = os.path.join(out_dir, label)
            if os.path.exists(point):  # an earlier sweep's: swapped out into the staging area
                os.replace(point, os.path.join(staging, f"replaced-{label}"))
            os.replace(os.path.join(staging, label), point)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
        if results is None and made:
            shutil.rmtree(out_dir, ignore_errors=True)
    return results


def _point_label(cfg):
    return f"eps={cfg.epsilon:g}_dt={cfg.dt:g}_nx={cfg.n_x}_nz={cfg.n_z}"


def cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    scenario = _load_scenario(args)
    points = sweep_points(scenario)
    labels = [_point_label(cfg) for cfg in points]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"{labels.count(label)} sweep points share the label {label}: "
                              "each point needs its own output directory")
    out_dir = resolve_out_dir(scenario, args.out)
    results = _run_sweep_points(scenario, points, labels, out_dir, args.jobs)

    results.sort(key=lambda r: (-r[1].epsilon, r[1].dt, r[1].n_x, r[1].n_z))
    lines = ["label,epsilon,dt,n_x,n_z,E_final,max_cons_residual"]
    for label, cfg, E, worst in results:
        lines.append(f"{label},{cfg.epsilon:.17g},{cfg.dt:.17g},{cfg.n_x},"
                     f"{cfg.n_z},{E[-1]:.17g},{worst:.17g}")
    write_artifact(os.path.join(out_dir, "sweep_summary.csv"), "\n".join(lines) + "\n")

    # epsilon-continuation table: consecutive eps levels at fixed other axes
    eps_lines = ["dt,n_x,n_z,eps_hi,eps_lo,sup_E_distance"]
    groups = {}
    for label, cfg, E, worst in results:
        groups.setdefault((cfg.dt, cfg.n_x, cfg.n_z), []).append((cfg.epsilon, E))
    table_rows = []
    for (dt, n_x, n_z), members in sorted(groups.items()):
        members.sort(key=lambda m: -m[0])
        for (e_hi, E_hi), (e_lo, E_lo) in zip(members, members[1:]):
            n = min(len(E_hi), len(E_lo))
            dist = float(np.abs(np.array(E_hi[:n]) - np.array(E_lo[:n])).max())
            table_rows.append(f"{dt:.17g},{n_x},{n_z},{e_hi:.17g},{e_lo:.17g},{dist:.17g}")
    if table_rows:
        write_artifact(os.path.join(out_dir, "epsilon_table.csv"),
                       "\n".join(eps_lines + table_rows) + "\n")
    if not args.quiet:
        print("\n".join(lines))
        if table_rows:
            print("\n".join(eps_lines + table_rows))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stefansim",
        description="Two-phase melting simulator with surface tension and "
                    "energy diagnostics.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def writes(p, needs_config):
        """The flags of a verb that writes artifacts."""
        if needs_config:
            p.add_argument("--config", required=True, help="scenario INI file")
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario's RNG seed")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="run one scenario")
    writes(p_run, True)
    p_run.set_defaults(handler=cmd_run)

    p_spec = sub.add_parser("spectrum", help="linearized spectrum table")
    writes(p_spec, False)
    p_spec.add_argument("--k", default="", help="wavenumbers, e.g. 0:8 or 1,2,4")
    p_spec.add_argument("--eps", default="0", help="comma list of eps values")
    p_spec.add_argument("--n-dense", type=int, default=201, dest="n_dense")
    p_spec.set_defaults(handler=cmd_spectrum)

    p_ver = sub.add_parser("verify", help="refinement verification suites")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.set_defaults(handler=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="cartesian parameter sweep")
    writes(p_sweep, True)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep points")
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StefanSimError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
