#!/usr/bin/env python3
"""Empirical convergence of the Crank-Nicolson solver on the CIR benchmark.

Runs a halving study against the closed form; the observed order should be
about 2.  The study ends with the default grid's answer: the Richardson
extrapolation of its coarse and fine marches, the error estimate that `fd`
gates on (fd_error_at) and its true error.
"""

import argparse
import math
from typing import NamedTuple

import numpy as np

from bondtaylor import fdsolver
from bondtaylor.closedform import cir_exact_price
from bondtaylor.errors import check_maturity
from bondtaylor.fdsolver import (FDGrid, FDSolution, default_grid, fd_error_at, fd_price_at,
                                 fd_solve)
from bondtaylor.model import CIRParams, ShortRateModel, make_cir

PARAMS = CIRParams(alpha=0.00315, beta=-0.0555, sigma=0.0894)
R = 0.05


class ConvergenceStudy(NamedTuple):
    values: tuple[float, ...]  # the price on the base grid halved 0, 1, ... times
    orders: tuple[float, ...]  # log2(d_k / d_{k+1}), d_k = |u_{k+1} - u_k|
    reference: float  # Richardson extrapolation from the two finest grids


def _price_once(model: ShortRateModel, tau: float, r: float, grid: FDGrid) -> float:
    """The price at r of one march on grid, with no extrapolation."""
    [profile] = fdsolver._march_once(model, grid, tau, [grid.n_t])
    return fd_price_at(FDSolution(grid, tau, profile, np.zeros_like(profile)), r)


def convergence_study(model: ShortRateModel, tau: float, r: float, base: FDGrid,
                      levels: int) -> ConvergenceStudy:
    """Halve h and dtau `levels-1` times and report the empirical order.

    The reference value is a Richardson extrapolation from the two finest
    grids, using the last order estimate (falling back on the scheme's order,
    2, when the differences are already at round-off).  Level i is the
    base grid with h = base.h / 2^i and n_t = base.n_t * 2^i, marched once
    and interpolated linearly at r.
    """
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")
    check_maturity(tau)
    values = tuple(_price_once(model, tau, r, base._replace(n_r=base.n_r * 2 ** i,
                                                           n_t=base.n_t * 2 ** i))
                   for i in range(levels))

    diffs = tuple(abs(values[i + 1] - values[i]) for i in range(levels - 1))
    orders = tuple(
        math.log2(diffs[i] / diffs[i + 1]) if diffs[i] > 0.0 and diffs[i + 1] > 0.0 else math.nan
        for i in range(levels - 2)
    )
    p_ref = next((p for p in reversed(orders) if math.isfinite(p) and p > 0.1), fdsolver._ORDER)
    # when the two finest values agree the correction is exactly 0
    reference = values[-1] + (values[-1] - values[-2]) / (2.0 ** p_ref - 1.0)
    return ConvergenceStudy(values, orders, reference)


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
          f"estimate {fd_error_at(sol, R):.3e}, |error| {abs(value - exact):.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args()
    run(args.tau, args.levels)


if __name__ == "__main__":
    main()
