"""Crank-Nicolson finite differences for the pricing equation.

Marches P_tau = mu(r) P_r + (1/2) s2(r) P_rr - r P from P(0, .) = 1 on the
uniform grid r_j = j h, j = 0..n_r, h = r_max / n_r, with time step
dtau = tau_final / n_t:

    (I - (dtau / 2) L) P^{n+1} = (I + (dtau / 2) L) P^n.

The operator is frozen in time and stored once, as its three diagonals, the
tridiagonal L.  With A = I - (dtau / 2) L the explicit matrix is 2 I - A, so
the step is P^{n+1} = 2 A^-1 P^n - P^n and needs no matvec.  A is constant:
each march factors A / 2 once with LAPACK dgttrf (LU with partial pivoting),
and each step is one dgttrs solve with those factors, which returns 2 A^-1 P^n,
and one subtraction.  Halving is exact in binary, so A / 2 has A's pivots and
multipliers, and the solve returns exactly twice what A's factors would.  One
march serves a path of maturities, a single solve being a path of one, with
tau = 0 its step 0.  A solve checks the grid, the maturities and their steps
once, on the grid it is given; each maturity's solution carries the grid of its
own steps, whose single solve it equals.

Every solve marches the grid it is given, then that grid halved (2 n_r, 2 n_t),
and returns on the coarse nodes the extrapolation fine + (fine - coarse) / 3
(Richardson's, the scheme being of order 2) with |fine - coarse| / 3 per node as
its estimate.  fd_error_at(sol, r) adds the stiff-step and interpolation errors
the nodes cannot see; outside the asymptotic range (one step per unit maturity,
say) it can fall short.  default_grid puts the query rate on a node at both
levels, since linear interpolation between nodes adds an error that does not
halve with the grid.  The error left is spatial: 80 steps per unit maturity in
place of 40 leave the CIR errors at tau = 5 and 10 unchanged.

dgttrf and dgttrs come from scipy's f2py LAPACK extension, loaded from its file
in scipy/linalg, which importlib finds without importing scipy: the scipy.linalg
package import would double an `fd` command's start, and the scipy package's
own import adds about a tenth.  Only on Windows is scipy imported first, since
its __init__ adds the folder of the BLAS DLLs.  A later `import scipy.linalg`
reuses the extension but binds no attribute scipy.linalg._flapack; scipy, and
any `from scipy.linalg import _flapack`, finds it in sys.modules.  Only where
scipy/linalg holds no such file (an editable scipy) does
`from scipy.linalg import lapack` load it.

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

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from typing import NamedTuple

import numpy as np

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


def _lapack():
    """scipy.linalg._flapack, without the scipy or scipy.linalg import (see above)."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    if os.name == "nt":  # scipy's __init__ adds the folder of its BLAS DLLs
        import scipy  # noqa: F401
    home = importlib.util.find_spec("scipy")  # its folder; runs no __init__
    if home is not None and home.submodule_search_locations:
        folder = os.path.join(home.submodule_search_locations[0], "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)  # single-phase init:
                spec.loader.exec_module(module)  # now in sys.modules under name
                return module
    # no _flapack file (an editable scipy), or no scipy, which this import names
    return importlib.import_module("scipy.linalg.lapack")


lapack = _lapack()


class FDGrid(NamedTuple):
    """A solve's coarse level, n_r cells and n_t steps; its fine level halves both."""

    r_max: float
    n_r: int
    n_t: int

    @property
    def h(self) -> float:
        return self.r_max / self.n_r


class FDSolution(NamedTuple):
    grid: FDGrid
    tau_final: float
    values: np.ndarray  # extrapolated P(tau_final, r_j), j = 0..n_r
    error: np.ndarray  # per-node Richardson estimate


def default_grid(r_query: float, tau_final: float) -> FDGrid:
    """The grid `fd` prices on; a solve extrapolates from it and its halving.

    r_max covers 10x the query rate, at least 0.5, in _BASE_CELLS cells.  When
    the query rate is at least half a cell, the cells stretch so that it falls
    on node k = round(r_query / h) at both levels, and r_max grows to a whole
    number of cells; the cell width moves by a factor between 1/2 and 3/2, so
    n_r stays between 2/3 and 2 times _BASE_CELLS.  A smaller rate keeps the base cells and
    is interpolated.  n_t is _STEPS_PER_YEAR per unit maturity, at least 1 and
    at most _MAX_STEPS.  A negative rate is refused before any march, as
    fd_price_at would refuse it after, and so is a rate (above about 3e305)
    whose stretched cells overflow.
    """
    check_maturity(tau_final)
    if not math.isfinite(r_query):
        raise DomainError(f"the query rate must be finite, got {r_query!r}")
    r_max = max(10.0 * r_query, 0.5)
    _check_on_grid(r_query, r_max)
    n_r = _BASE_CELLS
    try:
        k = round(r_query * n_r / r_max)
        if k >= 1:
            cells = r_max * k / r_query
            n_r = round(cells)
            if abs(cells - n_r) > 1e-9:  # r_max is not on a node: extend it to one
                n_r = math.ceil(cells)
                r_max = n_r * r_query / k
    except (OverflowError, ValueError):  # a product overflowed: round(inf) or round(nan)
        raise DomainError(f"the FD grid cannot stretch its cells to r={r_query!r}") from None
    n_t = max(1, round(min(_STEPS_PER_YEAR * tau_final, _MAX_STEPS)))
    return FDGrid(r_max, n_r, n_t)


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
    for c, n in poly.terms:
        if n < 0:
            raise DomainError(f"exponent {n / poly.den} cannot be evaluated at the r=0 boundary node")
        out += c * np.power(r_nodes, n / poly.den)
    return out


def _operator(model: ShortRateModel, grid: FDGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The spatial operator L as its three diagonals (lower, diag, upper), the
    dl, d, du of dgttrf: row j of L is lower[j-1] P[j-1] + diag[j] P[j] +
    upper[j] P[j+1]."""
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

    diff = 0.5 * s2[1:-1] / (h * h)
    adv = mu[1:-1] / (2.0 * h)
    # first row, r = 0: degenerate, one-sided first derivative, no reaction term;
    # last row, r = r_max: P_rr = 0, one-sided first derivative
    lower = np.concatenate((diff - adv, [-mu[-1] / h]))
    diag = np.concatenate(([-mu[0] / h], -2.0 * diff - r_nodes[1:-1], [mu[-1] / h - r_nodes[-1]]))
    upper = np.concatenate(([mu[0] / h], diff + adv))
    return lower, diag, upper


def _march(model: ShortRateModel, taus, grid: FDGrid) -> dict[float, FDSolution]:
    """Check grid, taus and their steps on grid, march both levels, extrapolate."""
    if not isinstance(grid.r_max, numbers.Real) or isinstance(grid.r_max, bool):
        raise ValueError(f"r_max must be a real number, got {grid.r_max!r}")
    if not (math.isfinite(grid.r_max) and grid.r_max > 0.0):
        raise ValueError(f"r_max must be positive, got {grid.r_max}")
    for name, count, least in (("n_r", grid.n_r, 3), ("n_t", grid.n_t, 1)):
        if not isinstance(count, int) or isinstance(count, bool):
            raise ValueError(f"{name} must be an integer, got {count!r}")
        if count < least:
            raise ValueError(f"{name} must be at least {least}, got {count}")
    taus = sorted(set(map(float, taus)))  # read once: taus may be a generator
    for tau in taus:
        check_maturity(tau)
    if not taus:
        return {}
    steps = []
    for tau in taus:
        exact = tau / taus[-1] * grid.n_t if tau else 0.0  # not tau / dtau: dtau may underflow
        steps.append(round(exact))
        if abs(exact - steps[-1]) > 1e-9 or (steps[-1] == 0 and tau > 0.0):
            raise DomainError(f"tau={tau} does not align with dtau={taus[-1] / grid.n_t}")
    coarse = _march_once(model, grid, taus[-1], steps)
    fine = _march_once(model, grid._replace(n_r=2 * grid.n_r, n_t=2 * grid.n_t), taus[-1],
                       [2 * step for step in steps])
    return {tau: FDSolution(grid._replace(n_t=step or grid.n_t), tau, *_richardson(c, f[::2]))
            for tau, step, c, f in zip(taus, steps, coarse, fine)}


def _march_once(model: ShortRateModel, grid: FDGrid, tau_final: float,
                steps: list[int]) -> list[np.ndarray]:
    """March steps of tau_final / grid.n_t from P(0, .) = 1, step 0, to the last
    of the ascending steps, returning the profile at each of them."""
    lower, diag, upper = _operator(model, grid)
    with np.errstate(over="ignore"):  # an overflow leaves step 1 non-finite, refused there
        s = -0.25 * (tau_final / grid.n_t)  # A / 2 = s L + I / 2, A = I - (dtau / 2) L
        dl, d, du, du2, ipiv, info = lapack.dgttrf(s * lower, s * diag + 0.5, s * upper)
    if info > 0:
        raise DomainError(f"singular tridiagonal matrix: zero pivot at row {info}")

    values = np.ones(grid.n_r + 1)
    zeros = np.zeros(grid.n_r + 1)
    out, done = [], 0
    # a march that blows up overflows on the way; the finiteness check names the
    # step.  0 x is +-0 for a finite x and NaN for an inf or NaN one, so the dot
    # product with zeros is finite exactly when every node is.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in steps:
            for done in range(done + 1, step + 1):  # done ends at step
                doubled, _ = lapack.dgttrs(dl, d, du, du2, ipiv, values)  # 2 A^-1 P
                values = np.subtract(doubled, values, out=doubled)
                if not math.isfinite(values.dot(zeros)):
                    raise DomainError(f"non-finite values at step {done} of {grid.n_t}")
            out.append(values)
    return out


def fd_solve(model: ShortRateModel, tau_final: float, grid: FDGrid) -> FDSolution:
    """The path of one maturity: fd_solve_path(model, [tau_final], grid)[tau_final]."""
    return _march(model, [tau_final], grid).popitem()[1]  # keyed by float(tau_final)


def fd_solve_path(model: ShortRateModel, taus, grid: FDGrid) -> dict[float, FDSolution]:
    """Each level marches once to max(taus), recording each requested maturity.

    The grid is checked first (ValueError), then every tau must pass
    check_maturity and land within 1e-9 of a step of grid, the caller's, step 0
    only for tau = 0, the starting profile.  The solution at tau on step k
    carries grid._replace(n_t=k) (tau = 0 keeps grid) and, where tau / k is the
    path's dtau in floats, equals fd_solve(model, tau, sol.grid) field for field.
    Maturities on one step share its profile.  On a default_grid the step is 1/40
    of a unit maturity when max(taus) is a multiple of 1/40, so quarters align.
    """
    return _march(model, taus, grid)


def _check_on_grid(r: float, r_max: float) -> None:
    if not (0.0 <= r <= r_max):
        raise DomainError(f"r={r} outside the grid [0, {r_max}]")


def _cell(grid: FDGrid, r: float) -> tuple[int, float]:
    """(j, w) with r = (j + w) h, 0 <= j < n_r and 0 <= w <= 1: r's cell and weight."""
    _check_on_grid(r, grid.r_max)
    x = r / grid.h
    j = min(int(x), grid.n_r - 1)
    return j, min(x - j, 1.0)


def fd_price_at(sol: FDSolution, r: float) -> float:
    """Linear interpolation of the solved profile at the rate r."""
    j, w = _cell(sol.grid, r)
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
    """The error estimate of fd_price_at(sol, r): the larger estimate of the
    two nodes around r, the scalar march's, and linear interpolation's
    w (1 - w) / 2 times the larger second difference at those nodes (node 1's
    for node 0), which the node estimates do not see."""
    j, w = _cell(sol.grid, r)
    v = sol.values
    curvature = max(abs(v[i - 1] - 2.0 * v[i] + v[i + 1])
                    for i in (max(j, 1), min(j + 1, sol.grid.n_r - 1)))
    return float(max(sol.error[j], sol.error[j + 1]) + _scalar_march_error(sol, r)
                 + 0.5 * w * (1.0 - w) * curvature)
