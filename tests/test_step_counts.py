"""A step's fixed per-call cost, counted exactly: the calls a short small
decay makes per accepted step, in the step and in its report apart, by
``scripts/step_counts.py``'s ``tally`` on its ``decay_problem``.

The counts are warm (the tally runs its problem once uncounted first), so
they repeat exactly from run to run and do not depend on which tests ran
before, unlike wall times: a change that cuts per-call overhead shows as a
lower count.  They depend on the installed Python and numpy (numpy's
Python-level wrappers), which the failure message names.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from stefansim.stepper import SolverConfig, compatible_initial_temperature

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "step_counts.py"
_spec = importlib.util.spec_from_file_location("step_counts", SCRIPT)
step_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_counts)

# per accepted step, exactly the warm counts: calls into stefansim
# functions, numpy Python-level functions entered from stefansim, and C
# calls made from stefansim frames (measured with Python 3.11.7 and numpy
# 2.4.6); a count above its limit fails
LIMITS = {"step": {"stefansim": 142.05, "numpy": 10.2, "c": 158.25},
          "report": {"stefansim": 57.75, "numpy": 8.3, "c": 52.55}}


def counts_per_step(problem, steps, compute_identity=False):
    return step_counts.totals(step_counts.tally(*problem, steps, compute_identity), steps)


def test_a_small_decay_step_stays_within_its_call_counts():
    counts = counts_per_step(step_counts.decay_problem(), 20)
    over = {(part, what): (counts[part][what], limit)
            for part, limits in LIMITS.items() for what, limit in limits.items()
            if counts[part][what] > limit}
    assert not over, (f"per-step counts above their limits, (count, limit): {over}; "
                      f"all counts {counts} with Python {sys.version.split()[0]} "
                      f"and numpy {np.__version__}")
    # every transform of a step and of its report is a product with the
    # cached matrices of ``grids.RealTransforms``: no numpy.fft function
    assert counts["step"]["fft"] == counts["report"]["fft"] == 0, counts


def test_the_counts_repeat_in_one_process():
    # the second tally of a problem counts the same calls as the first,
    # function by function, in the step and in the report; on a grid no
    # other test runs, whose transforms the first tally finds uncached
    problem = step_counts.decay_problem(10, 11)
    assert step_counts.tally(*problem, 4) == step_counts.tally(*problem, 4)


def test_a_step_its_report_and_the_identity_enter_no_numpy_fft():
    # a 16 x 17 run at k_diag = 2 and eps = 1e-4 with the identity on,
    # whose reports read every quotient up to s = 3 and the eps terms,
    # enters no numpy.fft function in a step, a report or the identity
    cfg = SolverConfig(epsilon=1e-4, dt=1e-3, n_x=16, n_z=17, k_diag=2)
    rho0 = 1e-3 * np.sin(cfg.grids().tangential.nodes)
    counts = counts_per_step((cfg, compatible_initial_temperature(rho0, cfg), rho0), 6,
                             compute_identity=True)
    assert counts["step"]["fft"] == counts["report"]["fft"] == 0, counts
