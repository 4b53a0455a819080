"""Re-derive the mms-column error bounds from an n_z refinement ladder.

    python3 bench/derive_mms_bound.py

Runs the mms-column problem at n_z = 129 and 257 (everything else as in
the workload), prints the final max-norm errors in u and rho, the observed
z-order between the two levels, and the bound each implies at n_z = 257:
the n_z = 129 error reduced at order MIN_ORDER.  The scheme is second
order in z, so a 257 error above that bound means refinement has stopped
paying.  The printed bounds are rounded up to two significant digits; they
are the MMS_*_BOUND constants in bench/workload.py.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from stefansim.oracles import ManufacturedProblem  # noqa: E402
from stefansim.stepper import SolverConfig, run  # noqa: E402
from workload import MMS_RHO_BOUND, MMS_SOLVER, MMS_T_END, MMS_U_BOUND  # noqa: E402

LADDER = (129, 257)
MIN_ORDER = 1.5


def final_errors(cfg):
    problem = ManufacturedProblem(cfg.grids(), cfg.cutoff(), cfg.epsilon)
    u0, rho0 = problem.initial_data()
    res = run(u0, rho0, cfg, MMS_T_END, forcing=problem, compute_identity=False)
    t = res.state.t
    return (float(np.abs(res.state.u - problem.u_exact(t)).max()),
            float(np.abs(res.state.rho - problem.rho_exact(t)).max()))


def round_up(x, digits=2):
    scale = 10.0 ** (math.floor(math.log10(x)) - digits + 1)
    return math.ceil(x / scale) * scale


def main():
    base = SolverConfig(**MMS_SOLVER)
    errs = {nz: final_errors(replace(base, n_z=nz)) for nz in LADDER}
    coarse, fine = (errs[nz] for nz in LADDER)
    for label, i, current in (("u", 0, MMS_U_BOUND), ("rho", 1, MMS_RHO_BOUND)):
        order = math.log2(coarse[i] / fine[i])
        bound = round_up(coarse[i] * 2.0 ** -MIN_ORDER)
        print(f"{label}: n_z {LADDER[0]} -> {LADDER[1]}: error {coarse[i]:.3e} -> "
              f"{fine[i]:.3e}, observed z-order {order:.2f}; implied bound at "
              f"n_z={LADDER[1]} (order {MIN_ORDER}): {bound:.2g} "
              f"(bench/workload.py uses {current:.2g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
