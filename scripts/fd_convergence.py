#!/usr/bin/env python3
"""Empirical convergence of the Crank-Nicolson solver on the CIR benchmark.

Runs a halving study against the closed form; the observed order should be
about 2.  The study ends with the default grid's answer: the Richardson
extrapolation of its coarse and fine marches, its error estimate and its true
error.
"""

import argparse

from bondtaylor.closedform import cir_exact_price
from bondtaylor.fdsolver import (FDGrid, convergence_study, default_grid,
                                 fd_price_at, fd_solve)
from bondtaylor.model import CIRParams, make_cir

PARAMS = CIRParams(alpha=0.00315, beta=-0.0555, sigma=0.0894)
R = 0.05


def run(tau: float, levels: int) -> None:
    model = make_cir(PARAMS)
    # base grid keeps r=0.05 on a node at every halving level
    base = FDGrid(r_max=0.5, n_r=250, n_t=250)
    study = convergence_study(model, tau, R, base, levels)
    exact = cir_exact_price(PARAMS, tau, R)
    print(f"tau={tau} exact={exact:.10f}")
    print(f"  {'h':>10s} {'dtau':>10s} {'value':>14s} {'|err_rich|':>11s}")
    for i, value in enumerate(study.values):
        print(f"  {base.h / 2 ** i:10.6f} {tau / (base.n_t * 2 ** i):10.6f} {value:14.10f} "
              f"{abs(value - study.reference):11.3e}")
    orders = ", ".join(f"{p:.3f}" for p in study.orders)
    print(f"  observed orders: {orders}")
    print(f"  |finest - exact| = {abs(study.values[-1] - exact):.3e}")

    grid = default_grid(R, tau)
    sol = fd_solve(model, tau, grid)
    value = fd_price_at(sol, R)
    print(f"  default grid {grid.n_r} x {grid.n_t} and its halving: {value:.10f}, "
          f"estimate {sol.error[round(R / grid.h)]:.3e}, |error| {abs(value - exact):.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args()
    run(args.tau, args.levels)


if __name__ == "__main__":
    main()
