"""Crank-Nicolson finite differences for the pricing equation.

Marches P_tau = mu(r) P_r + (1/2) s2(r) P_rr - r P from P(0, .) = 1 on the
uniform grid r_j = j h, j = 0..n_r, h = r_max / n_r, with time step
dtau = tau_final / n_t:

    (I - (dtau / 2) L) P^{n+1} = (I + (dtau / 2) L) P^n.

The operator is frozen in time and stored once, as one 3 x (n_r + 1) banded
array L.  With A = I - (dtau / 2) L the explicit matrix is 2 I - A, so the
step is P^{n+1} = 2 A^-1 P^n - P^n and needs no matvec.  A is constant: each
march factors A / 2 once with LAPACK dgttrf (LU with partial pivoting), and
each step is one dgttrs solve with those factors, which returns 2 A^-1 P^n,
and one subtraction.  Halving is exact in binary, so A / 2 has A's pivots and
multipliers, and the solve returns exactly twice what A's factors would.  One
march serves a single solve and a checkpointed path alike, and returns its
profiles keyed by maturity.

`default_grid` marks its grid for Richardson extrapolation: on such a grid the
march runs twice, at (n_r, n_t) and at (2 n_r, 2 n_t), and returns on the
coarse nodes fine + (fine - coarse) / (2^p - 1), p = 2 being the scheme's
order, with |fine - coarse| / (2^p - 1) per node as its error estimate.
fd_error_at(sol, r) adds to those of the nodes around r the stiff-step and
interpolation errors they cannot see.  A grid built directly marches once.
The default grid puts the query rate on a node at both levels, since linear
interpolation between nodes adds an error that does not halve with the grid.
The error left is spatial: 80 steps per unit maturity in place of 40 leave
the CIR errors at tau = 5 and 10 unchanged.

Boundaries:
  * r = 0.  The equation degenerates there for the models of interest
    (s2(0) = 0, mu(0) >= 0, and the reaction term -r P vanishes), so the row
    imposes the PDE's own limit -P_tau + mu(0) P_r = 0 with a first-order
    one-sided difference.  When mu(0) = 0 the node decouples and P(tau, 0)
    stays at 1, which is the exact degenerate solution.  Both assumptions
    are enforced: a model with s2(0) > 0 or mu(0) < 0 (Vasicek, say) raises
    DomainError, as does one whose s2 is negative on any grid node.
  * r = r_max.  Truncation boundary: the linearity condition P_rr = 0 with a
    one-sided first derivative.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .errors import DomainError, check_maturity
from .genpoly import GenPoly
from .model import _VOL2_SLACK, ShortRateModel


# default_grid's coarse level: cells over [0, max(10 r, 0.5)] and steps per
# unit maturity, a multiple of 4 so integer and quarter maturities fall on steps
_BASE_CELLS = 600
_STEPS_PER_YEAR = 40
_MAX_STEPS = 20000
# Crank-Nicolson's order in (h, dtau) halvings
_ORDER = 2


@dataclass(frozen=True)
class FDGrid:
    r_max: float
    n_r: int
    n_t: int
    _: KW_ONLY
    richardson: bool = False  # extrapolate from this grid and its halving

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_max) and self.r_max > 0.0):
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.n_r < 3:
            raise ValueError(f"n_r must be at least 3, got {self.n_r}")
        if self.n_t < 1:
            raise ValueError(f"n_t must be at least 1, got {self.n_t}")

    @property
    def h(self) -> float:
        return self.r_max / self.n_r


@dataclass(frozen=True)
class FDSolution:
    grid: FDGrid
    tau_final: float
    values: np.ndarray  # P(tau_final, r_j), j = 0..n_r
    error: np.ndarray | None = None  # per-node Richardson estimate, richardson grids only


def default_grid(r_query: float, tau_final: float) -> FDGrid:
    """Coarse Crank-Nicolson grid marked for Richardson extrapolation.

    r_max covers 10x the query rate, at least 0.5, in _BASE_CELLS cells.  When
    the query rate is at least half a cell, the cells stretch so that it falls
    on node k = round(r_query / h) at both levels, and r_max grows to a whole
    number of cells; the cell width moves by a factor between 1/2 and 3/2, so
    n_r stays between 2/3 and 2 times _BASE_CELLS.  A smaller rate keeps the base cells and
    is interpolated.  n_t is _STEPS_PER_YEAR per unit maturity, at least 1 and
    at most _MAX_STEPS.
    """
    check_maturity(tau_final)
    if not math.isfinite(r_query):
        raise DomainError(f"the query rate must be finite, got {r_query!r}")
    r_max = max(10.0 * r_query, 0.5)
    n_r = _BASE_CELLS
    k = round(r_query * n_r / r_max)
    if k >= 1:
        cells = r_max * k / r_query
        n_r = round(cells)
        if abs(cells - n_r) > 1e-9:  # r_max is not on a node: extend it to one
            n_r = math.ceil(cells)
            r_max = n_r * r_query / k
    n_t = max(1, min(round(_STEPS_PER_YEAR * tau_final), _MAX_STEPS))
    return FDGrid(r_max, n_r, n_t, richardson=True)


def _richardson(coarse, fine):
    """Extrapolate two solutions a halving apart whose error is O(h^p), p =
    _ORDER: fine + (fine - coarse) / (2^p - 1), and the estimate |fine -
    coarse| / (2^p - 1) of the error left in fine, which bounds the
    extrapolation's once the error is in its asymptotic range."""
    correction = (fine - coarse) / (2.0 ** _ORDER - 1.0)
    return fine + correction, abs(correction)


def _eval_profile(poly: GenPoly, r_nodes: np.ndarray) -> np.ndarray:
    """Evaluate a GenPoly on the grid; r = 0 takes the limit 0**p = 0 for p > 0."""
    out = np.zeros(len(r_nodes))
    for c, p in poly.terms:
        if p < 0.0:
            raise DomainError(f"exponent {p} cannot be evaluated at the r=0 boundary node")
        out += c * np.power(r_nodes, p)
    return out


def _operator(model: ShortRateModel, grid: FDGrid) -> np.ndarray:
    """The spatial operator L in LAPACK band layout: row 0 couples node j to
    j+1 (column j+1), row 1 is the diagonal, row 2 couples node j to j-1
    (column j-1)."""
    n = grid.n_r + 1
    h = grid.h
    r_nodes = np.linspace(0.0, grid.r_max, n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, one line
        mu = _eval_profile(model.drift, r_nodes)
        s2 = _eval_profile(model.vol2, r_nodes)
    for name, profile in (("drift", mu), ("vol2", s2)):
        bad = np.flatnonzero(~np.isfinite(profile))
        if bad.size:
            raise DomainError(f"{name} is not finite at r={r_nodes[bad[0]]:.6g} on the FD grid")
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

    # r = r_max: P_rr = 0, one-sided first derivative
    L[2, -2] = -mu[-1] / h
    L[1, -1] = mu[-1] / h - r_nodes[-1]
    return L


def _march(model: ShortRateModel, taus: list[float], grid: FDGrid) -> dict[float, FDSolution]:
    """One march to taus[-1], step n_t, returning the profile at each of the
    ascending, positive maturities taus (alignment as in fd_solve_path); on a
    richardson grid, a coarse and a fine march and their extrapolation."""
    if grid.richardson:
        coarse_grid = replace(grid, richardson=False)
        coarse = _march(model, taus, coarse_grid)
        fine = _march(model, taus, replace(coarse_grid, n_r=2 * grid.n_r, n_t=2 * grid.n_t))
        return {tau: FDSolution(grid, tau, *_richardson(sol.values, fine[tau].values[::2]))
                for tau, sol in coarse.items()}
    dtau = taus[-1] / grid.n_t
    wanted: dict[int, list[float]] = {}
    for tau in taus[:-1]:
        steps = tau / dtau
        step = round(steps)
        if step < 1 or abs(steps - step) > 1e-9:
            raise DomainError(f"tau={tau} does not align with dtau={dtau}")
        wanted.setdefault(step, []).append(tau)
    wanted.setdefault(grid.n_t, []).append(taus[-1])

    L = _operator(model, grid)
    with np.errstate(over="ignore"):  # an overflow leaves step 1 non-finite, refused there
        ab = -0.25 * dtau * L  # A / 2, with A = I - (dtau / 2) L the implicit matrix
    ab[1] += 0.5
    dl, d, du, du2, ipiv, info = lapack.dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info > 0:
        raise DomainError(f"singular tridiagonal matrix: zero pivot at row {info}")

    values = np.ones(grid.n_r + 1)
    zeros = np.zeros(grid.n_r + 1)
    out: dict[float, FDSolution] = {}
    # a march that blows up overflows on the way; the finiteness check names the
    # step.  0 x is +-0 for a finite x and NaN for an inf or NaN one, so the dot
    # product with zeros is finite exactly when every node is.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, grid.n_t + 1):
            doubled, _ = lapack.dgttrs(dl, d, du, du2, ipiv, values)  # 2 A^-1 P
            values = np.subtract(doubled, values, out=doubled)
            if not math.isfinite(values.dot(zeros)):
                raise DomainError(f"non-finite values at step {step} of {grid.n_t}")
            for tau in wanted.get(step, ()):
                out[tau] = FDSolution(grid, tau, values)
    return out


def fd_solve(model: ShortRateModel, tau_final: float, grid: FDGrid) -> FDSolution:
    """Solve up to tau_final and return the final profile."""
    check_maturity(tau_final)
    if tau_final == 0.0:
        n = grid.n_r + 1
        return FDSolution(grid, 0.0, np.ones(n), np.zeros(n) if grid.richardson else None)
    return _march(model, [tau_final], grid)[tau_final]


def fd_solve_path(model: ShortRateModel, taus, grid: FDGrid) -> dict[float, FDSolution]:
    """One march to max(taus), recording profiles at each requested maturity.

    Each tau must land on a step boundary (tau / dtau within 1e-9 of a
    positive integer), so the recorded profiles equal what single solves with
    the same dtau would produce.  Maturities on one step share its profile.
    On a default_grid the step is 1/40 of a unit maturity when max(taus) is a
    multiple of 1/40, so integer and quarter maturities align.
    """
    taus = sorted(set(float(t) for t in taus))
    if not taus:
        return {}
    if not all(0.0 < t < math.inf for t in taus):
        raise DomainError(f"checkpoint maturities must be positive and finite, got {taus}")
    return _march(model, taus, grid)


def _cell(sol: FDSolution, r: float) -> tuple[int, float]:
    """(j, w) with r = (j + w) h, 0 <= j < n_r and 0 <= w <= 1: r's cell and weight."""
    if not (0.0 <= r <= sol.grid.r_max):
        raise DomainError(f"r={r} outside the grid [0, {sol.grid.r_max}]")
    x = r / sol.grid.h
    j = min(int(x), sol.grid.n_r - 1)
    return j, min(x - j, 1.0)


def fd_price_at(sol: FDSolution, r: float) -> float:
    """Linear interpolation of the solved profile at the rate r."""
    j, w = _cell(sol, r)
    return float((1.0 - w) * sol.values[j] + w * sol.values[j + 1])


def _scalar_march_error(sol: FDSolution, r: float) -> float:
    """How far the extrapolated march of P' = -r P, Crank-Nicolson at the
    grid's n_t and 2 n_t steps from P = 1, lands from exp(-r tau).  Where r
    dtau is large the step factor is near -1 at both levels, which then agree,
    so the Richardson estimate sees nothing; this term does."""
    def march(n):
        x = r * sol.tau_final / (2 * n)
        return ((1.0 - x) / (1.0 + x)) ** n
    value, _ = _richardson(march(sol.grid.n_t), march(2 * sol.grid.n_t))
    return abs(value - math.exp(-r * sol.tau_final))


def fd_error_at(sol: FDSolution, r: float) -> float:
    """The error estimate of fd_price_at(sol, r) on a Richardson grid: the
    larger estimate of the two nodes around r, the scalar march's, and linear
    interpolation's w (1 - w) / 2 times the larger second difference at those
    nodes (node 1's for node 0), which the node estimates do not see."""
    j, w = _cell(sol, r)
    if sol.error is None:
        raise DomainError("a solution from a single march has no Richardson error estimate")
    v = sol.values
    curvature = max(abs(v[i - 1] - 2.0 * v[i] + v[i + 1])
                    for i in (max(j, 1), min(j + 1, sol.grid.n_r - 1)))
    return float(max(sol.error[j], sol.error[j + 1]) + _scalar_march_error(sol, r)
                 + 0.5 * w * (1.0 - w) * curvature)
