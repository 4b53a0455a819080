"""A step's fixed per-call cost, counted exactly: the calls a short small
decay makes per accepted step, in the step and in its report apart.

The counts repeat exactly from run to run, unlike wall times, so a change
that cuts per-call overhead shows as a lower count.  They depend on the
installed Python and numpy (numpy's Python-level wrappers), which the
failure message names.  ``scripts/step_counts.py`` prints the same totals
and the functions that make them.
"""
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from stefansim import stepper
from stefansim.stepper import SolverConfig, compatible_initial_temperature, run

PACKAGE = str(Path(stepper.__file__).parent)
NUMPY = str(Path(np.__file__).parent)
NUMPY_FFT = str(Path(np.fft.__file__).parent)

# per accepted step, at most: calls into stefansim functions, numpy
# Python-level functions entered from stefansim, and C calls made from
# stefansim frames (measured with Python 3.11.7 and numpy 2.4.6)
LIMITS = {"step": {"stefansim": 145.45, "numpy": 10.45, "c": 161.6},
          "report": {"stefansim": 59.4, "numpy": 9.45, "c": 55.0}}


def call_counts(cfg, u0, rho0, steps, compute_identity=False):
    """The ``sys.setprofile`` counts per accepted step of ``run`` from (u0,
    rho0) for ``steps`` steps, with the identity on if
    ``compute_identity``, within ``fixed_point_step`` ("step") and within
    ``_make_report`` ("report", which evaluates the identity), each call of
    those two included: the three counts of ``LIMITS``, and "fft", the
    numpy.fft functions entered from any frame."""
    parts = {stepper.fixed_point_step.__code__: "step", stepper._make_report.__code__: "report"}
    tally = {part: Counter() for part in parts.values()}
    inside = []  # the frame of the counted call under way

    def ours(frame):
        return frame is not None and frame.f_code.co_filename.startswith(PACKAGE)

    def profile(frame, event, arg):
        if event == "call" and not inside and frame.f_code in parts:
            inside.append(frame)
        if not inside:
            return
        counts = tally[parts[inside[0].f_code]]
        if event == "call":
            if ours(frame):
                counts["stefansim"] += 1
            elif frame.f_code.co_filename.startswith(NUMPY) and ours(frame.f_back):
                counts["numpy"] += 1
            if frame.f_code.co_filename.startswith(NUMPY_FFT):
                counts["fft"] += 1
        elif event == "c_call" and ours(frame):
            counts["c"] += 1
        elif event == "return" and frame is inside[0]:
            inside.pop()

    sys.setprofile(profile)
    try:
        res = run(u0, rho0, cfg, steps * cfg.dt, compute_identity=compute_identity)
    finally:
        sys.setprofile(None)
    assert len(res.reports) == steps + 1
    return {part: {what: counts[what] / steps for what in (*LIMITS[part], "fft")}
            for part, counts in tally.items()}


def decay_problem():
    """(cfg, u0, rho0) of the counted decay: 16 x 17, eps 0, dt 1e-3,
    k_diag 0, rho = 1e-3 sin x and the compatible start plus a small heat
    mass, as the decay-k1 config."""
    cfg = SolverConfig(epsilon=0.0, dt=1e-3, n_x=16, n_z=17, k_diag=0)
    grids = cfg.grids()
    rho0 = 1e-3 * np.sin(grids.tangential.nodes)
    u0 = (compatible_initial_temperature(rho0, cfg)
          + 1e-4 * np.sin(np.pi * grids.normal.nodes[None, :]) ** 2)
    return cfg, u0, rho0


def test_a_small_decay_step_stays_within_its_call_counts():
    counts = call_counts(*decay_problem(), 20)
    over = {(part, what): (counts[part][what], limit)
            for part, limits in LIMITS.items() for what, limit in limits.items()
            if counts[part][what] > limit}
    assert not over, (f"per-step counts above their limits, (count, limit): {over}; "
                      f"all counts {counts} with Python {sys.version.split()[0]} "
                      f"and numpy {np.__version__}")


def test_a_fixed_point_step_enters_no_numpy_fft():
    # every interface transform of a step is a product with the cached
    # matrices of ``grids.RealTransforms``, as every bulk one is: no
    # numpy.fft function is entered within ``fixed_point_step``
    counts = call_counts(*decay_problem(), 5)
    assert counts["step"]["fft"] == 0, counts


def test_a_step_its_report_and_the_identity_enter_no_numpy_fft():
    # every tangential transform of the package is a product with a cached
    # ``grids.RealTransforms`` matrix: a 16 x 17 run at k_diag = 2 and eps =
    # 1e-4 with the identity on, whose reports read every quotient up to
    # s = 3 and the eps terms, enters no numpy.fft function in a step, a
    # report or the identity
    cfg = SolverConfig(epsilon=1e-4, dt=1e-3, n_x=16, n_z=17, k_diag=2)
    rho0 = 1e-3 * np.sin(cfg.grids().tangential.nodes)
    counts = call_counts(cfg, compatible_initial_temperature(rho0, cfg), rho0, 6,
                         compute_identity=True)
    assert counts["step"]["fft"] == counts["report"]["fft"] == 0, counts
