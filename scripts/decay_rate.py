#!/usr/bin/env python3
"""Fitted energy decay rate vs the linearized spectrum, across amplitudes.

For each perturbation amplitude the single-mode scenario is run to t_end,
the tail of log E(t) is fitted, and the rate is compared with twice the
leading eigenvalue of the dense flat-state eigensolve.  The gap should
shrink as the amplitude does (the fit picks up nonlinear corrections at
finite amplitude).

Plotting recipe (external, optional):
    import pandas as pd, matplotlib.pyplot as plt
    df = pd.read_csv("decay_rates.csv")
    plt.loglog(df.amplitude, df.relative_gap, "o-")
    plt.xlabel("amplitude"); plt.ylabel("|K2_hat - 2|Re lambda_1|| / 2|Re lambda_1|")
"""
import argparse
import csv

import numpy as np

from stefansim import SolverConfig, run
from stefansim.config import Scenario, build_initial_data
from stefansim.functionals import decay_fit
from stefansim.oracles import linearized_spectrum


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--amplitudes", default="1e-2,3e-3,1e-3,3e-4")
    p.add_argument("--t-end", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--out", default="decay_rates.csv")
    args = p.parse_args()

    lam = linearized_spectrum(1, n_z_dense=201, eps=args.eps).leading
    target = 2.0 * abs(lam.real)
    print(f"oracle: Re lambda_1 = {lam.real:.8f}, target rate {target:.8f}")

    cfg = SolverConfig(epsilon=args.eps, dt=1e-3, n_x=64, n_z=65, k_diag=0)
    rows = []
    for amp in [float(a) for a in args.amplitudes.split(",")]:
        sc = Scenario(name=f"decay-a{amp:g}", rho_modes=((1, amp),),
                      u_init="compatible")
        u0, rho0 = build_initial_data(sc, cfg)
        res = run(u0, rho0, cfg, args.t_end, compute_identity=False)
        t = np.array([r.t for r in res.reports])
        E = np.array([r.E for r in res.reports])
        fit = decay_fit(t, E)
        gap = abs(fit.rate - target) / target
        rows.append((amp, fit.rate, fit.r_squared, gap))
        print(f"amp={amp:<8g} K2_hat={fit.rate:.6f} R2={fit.r_squared:.6f} "
              f"relative gap={gap:.2e}")

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["amplitude", "K2_hat", "r_squared", "relative_gap"])
        w.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
