"""One benchmark round in a fresh process: set up a workload, run it to its
end through the package's public entry points, write its artifacts, check
its outputs, and report on stdout.

Protocol (stdout): a line ``READY <a> <b>`` once set-up is done, where a
and b are the times of the interpreter reference kernel run first thing
and right after set-up (the parent times process start to this line as
set-up time), then one line ``RESULT <json>``.  With ``--setup-only`` the
process exits after READY.  Run and step times in the result are scaled to
reference host speed (see calibrate.py); the raw wall times sit beside them.

    PYTHONPATH=src python3 bench/workload.py --workload decay-k1 --seed 1 \
        --root . --out .bench_out/round --trace 0
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import NUMERIC_REFERENCE_S, numeric_kernel, python_kernel  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

clock = time.perf_counter

WORKLOADS = ("decay-k1", "rough-mass-diag", "mms-column")

# decay-k1: the shipped scenario cut to t = 0.5 (500 steps), the shortest
# run on which the fitted decay rate is within 10% of the dispersion root
DECAY_T_END = 0.5
# rough-mass-diag: generic-mass data plus one fixed band-limited noise
# realization (the config's noise seed); --seed translates the whole initial
# state by a whole number of cells.  Seeding the noise itself changes the
# lag-iteration count, and so the cost, by up to 2x from seed to seed.
ROUGH_NOISE = 0.02
ROUGH_EPS = 1e-4
ROUGH_K_DIAG = 2
ROUGH_T_END = 0.1
# mms-column: tall manufactured column, trapezoidal in time
MMS_SOLVER = dict(epsilon=1e-3, n_x=32, n_z=257, theta=0.5, dt=0.01, k_diag=0)
MMS_T_END = 0.4
# Final max-norm error bounds at n_z = 257, from bench/derive_mms_bound.py:
# the n_z = 129 error reduced at order 1.5 (the scheme is second order in z)
MMS_U_BOUND = 1.4e-4
MMS_RHO_BOUND = 5.3e-5

MONO_TOL = 1e-6          # relative tolerance on monotone energy
BUDGET_TOL = 1e-3        # (E + 1/2 int D) / E(0) <= 1 + BUDGET_TOL
CONS_TOL = 1e-6          # per-step conservation residual
RATE_TOL = 0.10          # decay rate vs 2 |dispersion root|
R2_MIN = 0.999


@dataclass
class Workload:
    name: str
    seed: int
    cfg: object
    t_end: float
    u0: object
    rho0: object
    compute_identity: bool
    forcing: object = None
    keep_states: bool = False


def import_package():
    """Import every module the rounds use; returns the import time."""
    t0 = clock()
    import stefansim  # noqa: F401
    import stefansim.config  # noqa: F401
    import stefansim.io  # noqa: F401
    import stefansim.oracles  # noqa: F401
    import stefansim.stepper  # noqa: F401
    return clock() - t0


def build(name, seed, root, t_end=None):
    """Set up a workload; returns (Workload, set-up timings in seconds)."""
    import numpy as np
    from stefansim.config import build_initial_data, parse_config
    from stefansim.oracles import ManufacturedProblem
    from stefansim.stepper import SolverConfig

    timings = {"config.build_initial_data_s": 0.0, "oracles.manufactured_setup_s": 0.0}
    if name == "decay-k1":
        scen = parse_config(os.path.join(root, "configs", "decay-k1.ini"))
        scen = replace(scen, seed=seed, t_end=DECAY_T_END, compute_identity=False)
    elif name == "rough-mass-diag":
        scen = parse_config(os.path.join(root, "configs", "generic-mass.ini"))
        scen = replace(scen, t_end=ROUGH_T_END, rho_random_amp=ROUGH_NOISE,
                       compute_identity=True,
                       solver=replace(scen.solver, epsilon=ROUGH_EPS, k_diag=ROUGH_K_DIAG))
    elif name == "mms-column":
        cfg = SolverConfig(**MMS_SOLVER)
        t0 = clock()
        problem = ManufacturedProblem(cfg.grids(), cfg.cutoff(), cfg.epsilon)
        u0, rho0 = problem.initial_data()
        timings["oracles.manufactured_setup_s"] = clock() - t0
        wl = Workload(name, seed, cfg, MMS_T_END if t_end is None else t_end,
                      u0, rho0, compute_identity=False, forcing=problem)
        return wl, timings
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    t0 = clock()
    u0, rho0 = build_initial_data(scen)
    timings["config.build_initial_data_s"] = clock() - t0
    if name == "rough-mass-diag":
        # the periodic problem is translation invariant: every seed poses
        # the same problem at another position
        shift = seed % rho0.size
        u0, rho0 = np.roll(u0, shift, axis=0), np.roll(rho0, shift)
    wl = Workload(name, seed, scen.solver, scen.t_end if t_end is None else t_end,
                  u0, rho0, compute_identity=scen.compute_identity,
                  keep_states=(name == "rough-mass-diag"))
    return wl, timings


# -- tracing ------------------------------------------------------------------
def _count_unknowns(counts, args, kwargs, result):
    counts["stepper.bulk_solve.unknowns"] += int(args[3].size)


def _count_lag(counts, args, kwargs, result):
    counts["stepper.lag_iters"] += int(result[2])


def _count_fp(counts, args, kwargs, result):
    counts["stepper.fp_iters"] += int(result[1].inner_iters)


# (metric name, module, attribute, hook accumulating a work count)
TRACED_FUNCTIONS = (
    ("stepper.fixed_point_step", "stepper", "fixed_point_step", _count_fp),
    ("stepper.temperature_step", "stepper", "temperature_step", _count_lag),
    ("stepper.interior_operator", "stepper", "_interior_operator", None),
    ("stepper.bulk_solve", "stepper", "_thomas_batched", _count_unknowns),
    ("stepper.interface_step", "stepper", "interface_step", None),
    ("stepper.make_report", "stepper", "_make_report", None),
    ("transform.coefficients", "transform", "coefficients", None),
    ("transform.curvature", "transform", "curvature", None),
    ("transform.jump_normal_derivative", "transform", "jump_normal_derivative", None),
    ("grids.d_tangential", "grids", "d_tangential", None),
    ("functionals.state_energy_k0", "functionals", "state_energy_k0", None),
    ("functionals.energy_eps", "functionals", "energy_eps", None),
    ("functionals.dissipation_eps", "functionals", "dissipation_eps", None),
    ("functionals.sobolev_norms", "functionals", "sobolev_norms", None),
    ("functionals.conservation_residual", "functionals", "conservation_residual", None),
    ("identity.identity_residual_k0", "identity", "identity_residual_k0", None),
)
SPAN_LAYERS = tuple(name for name, *_ in TRACED_FUNCTIONS) + ("oracles.forcing_at",)


def install_tracer(tracer):
    """Wrap each layer where its callers look it up."""
    import importlib

    from stefansim import grids, oracles

    for name, module, attr, after in TRACED_FUNCTIONS:
        tracer.trace_function(name, importlib.import_module(f"stefansim.{module}"), attr, after)
    tracer.count_function("grids.require_finite", grids, "_require_finite")
    tracer.trace_method("oracles.forcing_at", oracles.ManufacturedProblem, "at")


def layer_metrics(tracer):
    """Per-layer counts and self times of one traced round."""
    selfs = self_times(tracer.spans)
    c = tracer.counts
    out = {}
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = (c[f"{name}.calls"], "count")
        out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
    out["stepper.bulk_solve.unknowns"] = (c["stepper.bulk_solve.unknowns"], "count")
    out["grids.require_finite.calls"] = (c["grids.require_finite.calls"], "count")
    steps = c["stepper.fixed_point_step.calls"]
    solves = c["stepper.temperature_step.calls"]
    out["stepper.fp_iters_per_step"] = (c["stepper.fp_iters"] / steps if steps else 0.0,
                                        "iters/step")
    out["stepper.lag_iters_per_solve"] = (c["stepper.lag_iters"] / solves if solves else 0.0,
                                          "iters/solve")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


# -- one run ------------------------------------------------------------------
CAL_INTERVAL_S = 0.2  # longest timed segment between two reference-kernel runs


class SegmentClock:
    """Splits a run into timed segments between reference-kernel runs.

    A segment's host speed is taken from the kernel runs that open and
    close it and their neighbours; the kernels' own time is left out of
    every segment.
    """

    def __init__(self):
        self.kernels = [numeric_kernel()]
        self.walls = []
        self.start = clock()

    def close(self, now):
        self.walls.append(now - self.start)
        self.kernels.append(numeric_kernel())
        self.start = clock()

    def scale(self, index):
        """Factor taking wall time in segment ``index`` to reference speed:
        the median of the kernel runs at its ends and their neighbours."""
        near = self.kernels[max(0, index - 1):index + 3]
        return NUMERIC_REFERENCE_S / statistics.median(near)

    def wall_s(self):
        return sum(self.walls)

    def scaled_s(self):
        return sum(wall * self.scale(i) for i, wall in enumerate(self.walls))


def execute(wl, out_dir, tracer=None):
    """Run to t_end and write the artifacts; tracing spans the run only.

    Step durations are the times between consecutive run callbacks; the
    callback closes a timed segment whenever CAL_INTERVAL_S has passed.
    """
    from stefansim import io, stepper

    steps, states = [], []  # steps: (wall seconds, segment index)
    resume = [None]

    def on_step(state, report):
        now = clock()
        if resume[0] is not None:
            steps.append((now - resume[0], len(seg.walls)))
        if now - seg.start >= CAL_INTERVAL_S:
            seg.close(now)
            now = seg.start
        resume[0] = now
        if wl.keep_states:
            states.append(state)

    if tracer is not None:
        install_tracer(tracer)
    try:
        seg = SegmentClock()
        result = stepper.run(wl.u0, wl.rho0, wl.cfg, wl.t_end, forcing=wl.forcing,
                             callbacks=(on_step,), compute_identity=wl.compute_identity)
        energy_path = os.path.join(out_dir, "energy.csv")
        snap_path = os.path.join(out_dir, "final_snapshot.csv")
        t_io = clock()
        with tracer.span("io.write") if tracer is not None else contextlib.nullcontext():
            io.write_energy_csv(energy_path, result.reports, result.cfg, seed=wl.seed)
            io.write_snapshot(snap_path, result.state, result.cfg)
        t_end = clock()
        seg.close(t_end)
    finally:
        if tracer is not None:
            tracer.uninstall()
    halvings = round(math.log2(wl.cfg.dt / result.cfg.dt))
    return {
        "result": result,
        "states": states,
        "energy_path": energy_path,
        "run_s": seg.scaled_s(),
        "run_wall_s": seg.wall_s(),
        "kernel_s": seg.kernels,
        "io_write_s": t_end - t_io,
        "io_bytes": sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)),
        "step_s": [wall * seg.scale(i) for wall, i in steps],
        "step_wall_s": [wall for wall, _ in steps],
        "accepted": len(result.reports) - 1,
        "failed": halvings,
    }


# -- output checks --------------------------------------------------------------
def _steps_check(wl, run):
    expected = round(wl.t_end / wl.cfg.dt)
    return ("step count", run["accepted"] == expected,
            f"{run['accepted']} accepted steps, t_end/dt = {expected}")


def check_decay(wl, run):
    import numpy as np
    from stefansim.functionals import EnergyReport, decay_fit
    from stefansim.io import read_energy_csv
    from stefansim.oracles import dispersion_leading_root

    reports = run["result"].reports
    E = np.array([r.E for r in reports])
    D = np.array([r.D for r in reports])
    dt = run["result"].cfg.dt
    out = [_steps_check(wl, run)]
    rise = float(np.max(E[1:] / E[:-1] - 1.0))
    out.append(("E monotone", rise <= MONO_TOL, f"max relative rise {rise:.3e} (tol {MONO_TOL:g})"))
    budget = float(((E[1:] + 0.5 * np.cumsum(D[1:]) * dt) / E[0]).max())
    out.append(("dissipation budget", budget <= 1.0 + BUDGET_TOL,
                f"max (E + int D/2)/E(0) = {budget:.6f} (tol 1+{BUDGET_TOL:g})"))
    cons = max(r.cons_residual for r in reports[1:])
    out.append(("conservation", cons <= CONS_TOL, f"max residual {cons:.3e} (tol {CONS_TOL:g})"))
    times = np.array([r.t for r in reports])
    dev = np.array([r.rho_dev_L2 for r in reports])
    fit = decay_fit(times, E + dev**2)
    oracle = 2.0 * abs(dispersion_leading_root(1, wl.cfg.epsilon))
    gap = abs(fit.rate - oracle) / oracle
    out.append(("decay rate", (not fit.degenerate) and gap <= RATE_TOL and fit.r_squared >= R2_MIN,
                f"fit {fit.rate:.5f} vs 2|lambda_1| {oracle:.5f}: gap {100 * gap:.2f}% "
                f"(tol {100 * RATE_TOL:g}%), R^2 {fit.r_squared:.6f} (min {R2_MIN})"))
    cols = read_energy_csv(run["energy_path"])
    mismatched = []
    for name in EnergyReport.CSV_COLUMNS:
        vals = [getattr(r, name) for r in reports]
        mem = np.array([np.nan if v is None else float(v) for v in vals])
        if cols[name].shape != mem.shape or not np.array_equal(
                cols[name].view(np.uint64), mem.view(np.uint64)):
            mismatched.append(name)
    out.append(("energy.csv round trip", not mismatched,
                f"columns differing from the in-memory reports: {mismatched or 'none'}"))
    return out


def check_rough(wl, run):
    import numpy as np
    from stefansim.functionals import conserved_quantity, equivalence_constant

    res = run["result"]
    reports = res.reports
    cutoff, grids = wl.cfg.cutoff(), wl.cfg.grids()
    out = [_steps_check(wl, run)]
    complete = [i for i, r in enumerate(reports) if not r.missing_E and not r.missing_D]
    first = complete[0] if complete else len(reports)
    late_missing = [i for i, r in enumerate(reports)
                    if i >= wl.cfg.k_diag + 1 and (r.missing_E or r.missing_D)]
    out.append(("no missing terms", not late_missing and complete,
                f"first complete row {first}; incomplete rows at or after row "
                f"k_diag+1 = {wl.cfg.k_diag + 1}: {late_missing[:5] or 'none'}"))
    Ee = np.array([r.E_eps for r in reports[first:]])
    rise = float(np.max(Ee[1:] / Ee[:-1] - 1.0)) if Ee.size > 1 else -1.0
    out.append(("E_eps monotone", Ee.size > 1 and rise <= MONO_TOL,
                f"from row {first}: max relative rise {rise:.3e} (tol {MONO_TOL:g})"))
    q0 = conserved_quantity(wl.u0, wl.rho0, cutoff, grids)
    drift = max(abs(conserved_quantity(s.u, s.rho, cutoff, grids) - q0) for s in run["states"])
    drift_bound = CONS_TOL * run["accepted"]
    out.append(("conserved quantity drift", drift <= drift_bound,
                f"max |q(t) - q(0)| = {drift:.3e} (bound {drift_bound:.1e} = "
                f"{CONS_TOL:g} per step)"))
    rhos = [wl.rho0] + [s.rho for s in run["states"]]
    worst = math.inf
    for i in complete:
        C = equivalence_constant(rhos[i], cutoff, kind="E")
        ratio = reports[i].E_eps / reports[i].sobolev_E
        worst = min(worst, C - ratio, ratio - 1.0 / C)
    out.append(("norm equivalence", bool(complete) and worst >= 0.0,
                f"E_eps/sobolev_E within [1/C, C] on {len(complete)} rows, "
                f"worst margin {worst:.3e}"))
    return out


def check_mms(wl, run):
    import numpy as np

    state = run["result"].state
    u_err = float(np.abs(state.u - wl.forcing.u_exact(state.t)).max())
    rho_err = float(np.abs(state.rho - wl.forcing.rho_exact(state.t)).max())
    return [
        _steps_check(wl, run),
        ("manufactured error u", u_err <= MMS_U_BOUND,
         f"max |u - u_exact| = {u_err:.3e} (bound {MMS_U_BOUND:.1e})"),
        ("manufactured error rho", rho_err <= MMS_RHO_BOUND,
         f"max |rho - rho_exact| = {rho_err:.3e} (bound {MMS_RHO_BOUND:.1e})"),
    ]


CHECKS = {"decay-k1": check_decay, "rough-mass-diag": check_rough, "mms-column": check_mms}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True, help="repository checkout holding src/ and configs/")
    ap.add_argument("--out", help="artifact directory for this round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    python_before = python_kernel()
    import_s = import_package()
    wl, timings = build(args.workload, args.seed, args.root)
    python_after = python_kernel()
    print(f"READY {python_before!r} {python_after!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(run_id=args.seed) if args.trace else None
    run = execute(wl, args.out, tracer)
    checks = CHECKS[wl.name](wl, run)
    layers = {"import_s": (import_s, "s"),
              "config.build_initial_data_s": (timings["config.build_initial_data_s"], "s"),
              "oracles.manufactured_setup_s": (timings["oracles.manufactured_setup_s"], "s"),
              "io.write_s": (run["io_write_s"], "s"),
              "io.bytes": (run["io_bytes"], "B")}
    if tracer is not None:
        layers.update(layer_metrics(tracer))
        tracer.write_spans(os.path.join(args.out, "spans.csv"))
    report = {
        "run_s": run["run_s"],
        "run_wall_s": run["run_wall_s"],
        "kernel_s": run["kernel_s"],
        "step_s": run["step_s"],
        "step_wall_s": run["step_wall_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run["accepted"] + run["failed"],
        "failed": run["failed"],
        "checks": [[name, bool(ok), detail] for name, ok, detail in checks],
        "layers": layers,
    }
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
