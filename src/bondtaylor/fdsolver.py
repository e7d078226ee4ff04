"""Theta-scheme finite differences for the pricing equation.

Marches P_tau = mu(r) P_r + (1/2) s2(r) P_rr - r P from P(0, .) = 1 on the
uniform grid r_j = j h, j = 0..n_r, h = r_max / n_r, with time step
dtau = tau_final / n_t:

    (I - theta dtau L) P^{n+1} = (I + (1 - theta) dtau L) P^n.

theta = 0.5 is Crank-Nicolson, theta = 1 implicit Euler.  The operator is
frozen in time and stored once, as one 3 x (n_r + 1) banded array L; both step
matrices are derived from it.  The implicit matrix is constant, so each march
factors it once with LAPACK dgttrf (LU with partial pivoting), and each step is
one banded matvec and one dgttrs solve with those factors.  One march serves a
single solve and a checkpointed path alike, and returns its profiles keyed by
maturity.

Boundaries:
  * r = 0.  The equation degenerates there for the models of interest
    (s2(0) = 0, mu(0) >= 0, and the reaction term -r P vanishes), so the row
    imposes the PDE's own limit -P_tau + mu(0) P_r = 0 with a first-order
    one-sided difference.  When mu(0) = 0 the node decouples and P(tau, 0)
    stays at 1, which is the exact degenerate solution.  Both assumptions
    are enforced: a model with s2(0) > 0 or mu(0) < 0 (Vasicek, say) raises
    DomainError, as does one whose s2 is negative on any grid node.
  * r = r_max.  Truncation boundary.  Default is the linearity condition
    P_rr = 0 with a one-sided first derivative; "dirichlet0" clamps P to 0
    instead, for cross-checking the truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, check_maturity
from .genpoly import GenPoly
from .model import _VOL2_SLACK, UPPER_BOUNDARIES, ShortRateModel


@dataclass(frozen=True)
class FDGrid:
    r_max: float
    n_r: int
    n_t: int
    theta: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_max) and self.r_max > 0.0):
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.n_r < 3:
            raise ValueError(f"n_r must be at least 3, got {self.n_r}")
        if self.n_t < 1:
            raise ValueError(f"n_t must be at least 1, got {self.n_t}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")

    @property
    def h(self) -> float:
        return self.r_max / self.n_r


@dataclass(frozen=True)
class FDSolution:
    grid: FDGrid
    tau_final: float
    values: np.ndarray  # P(tau_final, r_j), j = 0..n_r


def default_grid(r_query: float, tau_final: float) -> FDGrid:
    """Grid sized so desk-scale problems resolve to ~1e-5: r_max covers 10x the
    query rate (at least 0.5), 2000 space cells, 1000 steps per unit maturity
    capped at 20000."""
    check_maturity(tau_final)
    if not math.isfinite(r_query):
        raise DomainError(f"the query rate must be finite, got {r_query!r}")
    r_max = max(10.0 * r_query, 0.5)
    n_t = max(1, min(int(round(1000.0 * tau_final)), 20000))
    return FDGrid(r_max=r_max, n_r=2000, n_t=n_t)


def _eval_profile(poly: GenPoly, r_nodes: np.ndarray) -> np.ndarray:
    """Evaluate a GenPoly on the grid; r = 0 takes the limit 0**p = 0 for p > 0."""
    out = np.zeros(len(r_nodes))
    for c, p in poly.terms:
        if p < 0.0:
            raise DomainError(f"exponent {p} cannot be evaluated at the r=0 boundary node")
        out += c * np.power(r_nodes, p)
    return out


def _operator(model: ShortRateModel, grid: FDGrid, upper_boundary: str) -> np.ndarray:
    """The spatial operator L in LAPACK band layout: row 0 couples node j to
    j+1 (column j+1), row 1 is the diagonal, row 2 couples node j to j-1
    (column j-1)."""
    n = grid.n_r + 1
    h = grid.h
    r_nodes = np.linspace(0.0, grid.r_max, n)
    mu = _eval_profile(model.drift, r_nodes)
    s2 = _eval_profile(model.vol2, r_nodes)
    negative = np.flatnonzero(s2 < _VOL2_SLACK)
    if negative.size:
        raise DomainError(f"vol2 is negative at r={r_nodes[negative[0]]:.6g} on the FD grid")
    if s2[0] > 0.0 or mu[0] < 0.0:
        raise DomainError(f"the r=0 boundary row needs vol2(0) = 0 and drift(0) >= 0, "
                          f"got vol2(0)={s2[0]:g}, drift(0)={mu[0]:g}")

    L = np.zeros((3, n))
    diff = 0.5 * s2[1:-1] / (h * h)
    adv = mu[1:-1] / (2.0 * h)
    L[0, 2:] = diff + adv
    L[1, 1:-1] = -2.0 * diff - r_nodes[1:-1]
    L[2, :-2] = diff - adv

    # r = 0: degenerate row, one-sided first derivative, no reaction term
    L[1, 0] = -mu[0] / h
    L[0, 1] = mu[0] / h

    if upper_boundary == "linearity":
        # r = r_max: P_rr = 0, one-sided first derivative
        L[2, -2] = -mu[-1] / h
        L[1, -1] = mu[-1] / h - r_nodes[-1]
    elif upper_boundary != "dirichlet0":  # dirichlet0 keeps the top row zero
        raise ValueError(f"unknown upper boundary {upper_boundary!r}; expected one of {UPPER_BOUNDARIES}")
    return L


def _march(model: ShortRateModel, taus: list[float], grid: FDGrid,
           upper_boundary: str) -> dict[float, FDSolution]:
    """One march to taus[-1], step n_t, returning the profile at each of the
    ascending, positive maturities taus (alignment as in fd_solve_path)."""
    dtau = taus[-1] / grid.n_t
    wanted: dict[int, list[float]] = {}
    for tau in taus[:-1]:
        steps = tau / dtau
        step = round(steps)
        if step < 1 or abs(steps - step) > 1e-9:
            raise DomainError(f"tau={tau} does not align with dtau={dtau}")
        wanted.setdefault(step, []).append(tau)
    wanted.setdefault(grid.n_t, []).append(taus[-1])

    L = _operator(model, grid, upper_boundary)
    th = grid.theta
    ab = -th * dtau * L  # implicit matrix I - theta dtau L
    ab[1] += 1.0
    ex = (1.0 - th) * dtau * L  # explicit matrix I + (1 - theta) dtau L
    ex[1] += 1.0
    if upper_boundary == "dirichlet0":
        ex[1, -1] = 0.0  # with the zero row of L, clamps P(r_max) to 0
    ex_sup, ex_dia, ex_sub = ex[0, 1:], ex[1], ex[2, :-1]
    dl, d, du, du2, ipiv, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info > 0:
        raise DomainError(f"singular tridiagonal matrix: zero pivot at row {info}")

    values = np.ones(grid.n_r + 1)
    out: dict[float, FDSolution] = {}
    # a march that blows up overflows on the way; the finiteness check names the step
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, grid.n_t + 1):
            rhs = ex_dia * values
            rhs[:-1] += ex_sup * values[1:]
            rhs[1:] += ex_sub * values[:-1]
            values, _ = lapack.dgttrs(dl, d, du, du2, ipiv, rhs)
            if not np.isfinite(values).all():
                raise DomainError(f"non-finite values at step {step} of {grid.n_t}")
            for tau in wanted.get(step, ()):
                out[tau] = FDSolution(grid, tau, values)
    return out


def fd_solve(model: ShortRateModel, tau_final: float, grid: FDGrid,
             upper_boundary: str = "linearity") -> FDSolution:
    """Solve up to tau_final and return the final profile."""
    check_maturity(tau_final)
    if tau_final == 0.0:
        return FDSolution(grid, 0.0, np.ones(grid.n_r + 1))
    return _march(model, [tau_final], grid, upper_boundary)[tau_final]


def fd_solve_path(model: ShortRateModel, taus, grid: FDGrid,
                  upper_boundary: str = "linearity") -> dict[float, FDSolution]:
    """One march to max(taus), recording profiles at each requested maturity.

    Each tau must land on a step boundary (tau / dtau within 1e-9 of a
    positive integer), so the recorded profiles equal what single solves with
    the same dtau would produce.  Maturities on one step share its profile.
    """
    taus = sorted(set(float(t) for t in taus))
    if not taus:
        return {}
    if not all(0.0 < t < math.inf for t in taus):
        raise DomainError(f"checkpoint maturities must be positive and finite, got {taus}")
    return _march(model, taus, grid, upper_boundary)


def fd_price_at(sol: FDSolution, r: float) -> float:
    """Linear interpolation of the solved profile at the rate r."""
    if not (0.0 <= r <= sol.grid.r_max):
        raise DomainError(f"r={r} outside the grid [0, {sol.grid.r_max}]")
    x = r / sol.grid.h
    j = int(x)
    if j >= sol.grid.n_r:
        return float(sol.values[-1])
    w = x - j
    return float((1.0 - w) * sol.values[j] + w * sol.values[j + 1])


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    dtau: float
    value: float
    error_vs_richardson: float


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]
    orders: tuple[float, ...]  # log2(d_k / d_{k+1}), d_k = |u_{k+1} - u_k|


def convergence_study(model: ShortRateModel, tau: float, r: float, base: FDGrid,
                      levels: int) -> ConvergenceStudy:
    """Halve h and dtau `levels-1` times and report the empirical order.

    The reference value is a Richardson extrapolation from the two finest
    grids, using the last order estimate (falling back on the scheme's formal
    order when the differences are already at round-off).
    """
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")
    grids = [FDGrid(base.r_max, base.n_r * 2 ** i, base.n_t * 2 ** i, base.theta)
             for i in range(levels)]
    values = [fd_price_at(fd_solve(model, tau, grid), r) for grid in grids]

    diffs = tuple(abs(values[i + 1] - values[i]) for i in range(levels - 1))
    orders = tuple(
        math.log2(diffs[i] / diffs[i + 1]) if diffs[i] > 0.0 and diffs[i + 1] > 0.0 else math.nan
        for i in range(levels - 2)
    )
    p_ref = next((p for p in reversed(orders) if math.isfinite(p) and p > 0.1),
                 2.0 if base.theta == 0.5 else 1.0)
    # when the two finest values agree the correction is exactly 0
    reference = values[-1] + (values[-1] - values[-2]) / (2.0 ** p_ref - 1.0)
    rows = tuple(ConvergenceRow(grid.h, tau / grid.n_t, value, abs(value - reference))
                 for grid, value in zip(grids, values))
    return ConvergenceStudy(rows, orders)
