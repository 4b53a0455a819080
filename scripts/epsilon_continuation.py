#!/usr/bin/env python3
"""Regularization continuation: energy trajectories across an eps ladder.

Runs identical initial data for a decreasing sequence of regularization
strengths and reports the sup-over-time distance between consecutive
energy series.  The distances should decrease and the smallest nonzero
level should sit close to the unregularized limit.
"""
import argparse
import csv
from dataclasses import replace

import numpy as np

from stefansim import SolverConfig, run
from stefansim.config import Scenario, build_initial_data


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--eps", default="1e-2,1e-3,1e-4,0")
    p.add_argument("--t-end", type=float, default=2.0)
    p.add_argument("--out", default="epsilon_continuation.csv")
    args = p.parse_args()

    eps_values = [float(e) for e in args.eps.split(",")]
    cfg = SolverConfig(epsilon=eps_values[0], dt=1e-3, n_x=64, n_z=65, k_diag=0)
    sc = Scenario(name="continuation", rho_modes=((1, 1e-3),),
                  u_init="compatible", u_mass=1e-4)
    u0, rho0 = build_initial_data(sc, cfg)
    results = {eps: run(u0, rho0, replace(cfg, epsilon=eps), args.t_end,
                        compute_identity=False)
               for eps in eps_values}

    series = {e: np.array([r.E for r in results[e].reports]) for e in eps_values}
    rows = []
    for hi, lo in zip(eps_values, eps_values[1:]):
        d = np.abs(series[hi] - series[lo]).max()
        rel = d / np.abs(series[lo]).max()
        rows.append((hi, lo, d, rel))
        print(f"eps {hi:g} -> {lo:g}: sup|dE| = {d:.3e}  (relative {rel:.2e})")

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps_hi", "eps_lo", "sup_E_distance", "relative"])
        w.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
