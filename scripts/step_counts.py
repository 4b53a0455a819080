#!/usr/bin/env python3
"""A step's fixed per-call cost, tallied: the calls a small decay makes per
accepted step, in the step and in its report, and which functions make
them.  ``tests/test_step_counts.py`` gates these counts with ``tally`` and
``decay_problem``.

The counted run is a 16 x 17 decay by default (eps 0, dt 1e-3, k_diag 0,
rho = 1e-3 sin x, the compatible start plus a heat mass of 1e-4
sin^2(pi z)).  ``sys.setprofile`` counts, within ``fixed_point_step``
("step") and within ``_make_report`` ("report"): calls into stefansim
functions, numpy Python-level functions entered from stefansim, C calls
made from stefansim frames, and the numpy.fft functions entered from any
frame ("fft").  The problem runs once uncounted first, which fills the
package's caches, so the counts are the warm ones and repeat exactly in
one process.  The hook sees no ufunc call (``np.matmul``,
``np.multiply``), no ``functools.lru_cache`` wrapper and no type call
(``tuple``, ``zip``): work moved into such calls counts as free.  Run
from the repository root:

    PYTHONPATH=src python scripts/step_counts.py [--steps 20] [--n-x 16] [--n-z 17] [--top 25]

It prints a table of the four totals per accepted step for each part and
a line naming what is not counted, then, per part, the ``--top``
functions by calls per step, each with the function it was called from.
"""
import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from stefansim import stepper
from stefansim.stepper import SolverConfig, compatible_initial_temperature, run

PACKAGE = str(Path(stepper.__file__).parent)
NUMPY = str(Path(np.__file__).parent)
NUMPY_FFT = str(Path(np.fft.__file__).parent)
KINDS = ("stefansim", "numpy", "c", "fft")
UNSEEN = ("not counted: ufunc calls (np.matmul, np.multiply, ...), "
          "functools.lru_cache wrappers and type calls (tuple, zip)")


def _name(code):
    return getattr(code, "co_qualname", code.co_name)


def tally(cfg, u0, rho0, steps, compute_identity=False):
    """{part: Counter of (kind, function, caller)} over ``run`` from (u0,
    rho0) for ``steps`` steps, with the identity on if
    ``compute_identity``: part "step" within ``fixed_point_step`` and
    "report" within ``_make_report``, each call of those two included.
    An uncounted run of the same problem goes first, so no count includes
    the filling of a cache."""
    parts = {stepper.fixed_point_step.__code__: "step", stepper._make_report.__code__: "report"}
    counts = {part: Counter() for part in parts.values()}
    inside = []  # the frame of the counted call under way

    def ours(frame):
        return frame is not None and frame.f_code.co_filename.startswith(PACKAGE)

    def caller(frame):
        return "-" if frame is None else _name(frame.f_code)

    def profile(frame, event, arg):
        if event == "call" and not inside and frame.f_code in parts:
            inside.append(frame)
        if not inside:
            return
        part = counts[parts[inside[0].f_code]]
        if event == "call":
            if ours(frame):
                part["stefansim", _name(frame.f_code), caller(frame.f_back)] += 1
            elif frame.f_code.co_filename.startswith(NUMPY) and ours(frame.f_back):
                part["numpy", _name(frame.f_code), caller(frame.f_back)] += 1
            if frame.f_code.co_filename.startswith(NUMPY_FFT):
                part["fft", _name(frame.f_code), caller(frame.f_back)] += 1
        elif event == "c_call" and ours(frame):
            part["c", getattr(arg, "__qualname__", repr(arg)), caller(frame)] += 1
        elif event == "return" and frame is inside[0]:
            inside.pop()

    run(u0, rho0, cfg, steps * cfg.dt, compute_identity=compute_identity)
    sys.setprofile(profile)
    try:
        res = run(u0, rho0, cfg, steps * cfg.dt, compute_identity=compute_identity)
    finally:
        sys.setprofile(None)
    assert len(res.reports) == steps + 1
    return counts


def totals(counts, steps):
    """{part: {kind: calls per step}} of ``tally``'s counts."""
    return {part: {kind: sum(n for (k, *_), n in c.items() if k == kind) / steps for kind in KINDS}
            for part, c in counts.items()}


def decay_problem(n_x=16, n_z=17):
    """(cfg, u0, rho0) of the counted decay on an n_x x n_z grid."""
    cfg = SolverConfig(epsilon=0.0, dt=1e-3, n_x=n_x, n_z=n_z, k_diag=0)
    grids = cfg.grids()
    rho0 = 1e-3 * np.sin(grids.tangential.nodes)
    u0 = (compatible_initial_temperature(rho0, cfg)
          + 1e-4 * np.sin(np.pi * grids.normal.nodes[None, :]) ** 2)
    return cfg, u0, rho0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--n-x", type=int, default=16)
    p.add_argument("--n-z", type=int, default=17)
    p.add_argument("--top", type=int, default=25)
    args = p.parse_args()
    counts = tally(*decay_problem(args.n_x, args.n_z), args.steps)
    print(f"{'part':<8}" + "".join(f"{kind:>12}" for kind in KINDS))
    for part, per_step in totals(counts, args.steps).items():
        print(f"{part:<8}" + "".join(f"{per_step[kind]:>12.2f}" for kind in KINDS))
    print(UNSEEN)
    for part, c in counts.items():
        print(f"\n{part}: top {args.top} by calls per step (kind, function <- caller)")
        for (kind, function, source), n in c.most_common(args.top):
            print(f"{n / args.steps:>8.2f}  {kind:<9} {function} <- {source}")


if __name__ == "__main__":
    main()
