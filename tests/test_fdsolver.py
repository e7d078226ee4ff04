import importlib.util
import math
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from bondtaylor import fdsolver
from bondtaylor.closedform import cir_exact_price
from bondtaylor.errors import DomainError
from bondtaylor.fdsolver import (FDGrid, FDSolution, default_grid, fd_error_at,
                                 fd_price_at, fd_solve, fd_solve_path)
from bondtaylor.model import (CIRParams, DothanParams, make_cir, make_ckls,
                              make_custom, make_dothan, parse_model_config)

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
_SPEC = importlib.util.spec_from_file_location("fd_convergence",
                                               ROOT / "scripts" / "fd_convergence.py")
fd_convergence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fd_convergence)
convergence_study = fd_convergence.convergence_study

# the zero model has mu = s2 = 0 and so only a diagonal band; CKLS has a
# fractional gamma; CIR has mu(0) > 0; Dothan's r = 0 node decouples
# (drift(0) = 0)
PATH_MODELS = {"zero": make_custom([], []),
               "ckls": make_ckls(0.01, -0.2, 0.1, 0.75),
               "cir": make_cir(CIRParams(0.00315, -0.0555, 0.0894)),
               "dothan": make_dothan(DothanParams(mu=0.005, sigma=0.1))}


def test_zero_model_matches_exponential(zero_model):
    # r=0.05 sits on a node; CN time error ~ r^3 dtau^2 / 12
    sol = fd_solve(zero_model, 1.0, FDGrid(r_max=0.5, n_r=10, n_t=100))
    assert abs(fd_price_at(sol, 0.05) - math.exp(-0.05)) <= 1e-8


def test_cir_reference_cell(cir_model, cir_params):
    sol = fd_solve(cir_model, 1.0, FDGrid(r_max=0.5, n_r=2000, n_t=2000))
    assert abs(fd_price_at(sol, 0.05) - 0.951115) <= 1e-5
    assert abs(fd_price_at(sol, 0.05) - cir_exact_price(cir_params, 1.0, 0.05)) <= 1e-5


def test_dothan_reference_cell(dothan02_model):
    sol = fd_solve(dothan02_model, 5.0, default_grid(0.035, 5.0))
    assert abs(fd_price_at(sol, 0.035) - 0.838057) <= 2e-5


def test_cir_error_profile(cir_model, cir_params):
    sol = fd_solve(cir_model, 5.0, default_grid(0.05, 5.0))
    worst = max(abs(fd_price_at(sol, r) - cir_exact_price(cir_params, 5.0, r))
                for r in [0.01 * k for k in range(1, 11)])
    assert worst <= 1e-5


def test_solution_bounds(cir_model, dothan02_model):
    for model in (cir_model, dothan02_model):
        sol = fd_solve(model, 5.0, FDGrid(r_max=0.5, n_r=500, n_t=500))
        assert float(np.min(sol.values)) > 0.0
        assert float(np.max(sol.values)) <= 1.0 + 1e-9


def test_tau_zero_returns_par(cir_model):
    sol = fd_solve(cir_model, 0.0, FDGrid(r_max=0.5, n_r=10, n_t=4))
    assert np.all(sol.values == 1.0)


def test_negative_tau_rejected(cir_model):
    with pytest.raises(DomainError):
        fd_solve(cir_model, -1.0, FDGrid(r_max=0.5, n_r=10, n_t=4))


def test_fd_price_at_interpolation():
    grid = FDGrid(r_max=1.0, n_r=4, n_t=1)
    values = np.array([1.0, 0.8, 0.6, 0.4, 0.2])
    sol = FDSolution(grid, 1.0, values)
    assert fd_price_at(sol, 0.25) == 0.8             # on node
    assert fd_price_at(sol, 0.375) == pytest.approx(0.7, abs=1e-15)
    assert fd_price_at(sol, 1.0) == 0.2              # top node
    with pytest.raises(DomainError):
        fd_price_at(sol, 1.01)
    with pytest.raises(DomainError):
        fd_price_at(sol, -0.01)
    # r_max / h rounds to just above n_r here: r_max is still the top node
    grid = FDGrid(r_max=1.0 / 3.0, n_r=15, n_t=1)
    assert grid.r_max / grid.h > grid.n_r
    sol = FDSolution(grid, 1.0, np.linspace(1.0, 0.3, 16))
    assert fd_price_at(sol, grid.r_max) == sol.values[-1]


def test_fd_error_at_adds_node_scalar_and_interpolation_terms():
    grid = FDGrid(r_max=1.0, n_r=4, n_t=1, richardson=True)
    values = np.array([1.0, 0.8, 0.7, 0.4, 0.2])
    sol = FDSolution(grid, 2.0, values, np.array([1e-3, 2e-3, 3e-3, 4e-3, 5e-3]))

    def scalar(r):  # the Crank-Nicolson march of P' = -r P at 1 and 2 steps
        coarse, fine = ((1.0 - r) / (1.0 + r)), ((1.0 - r / 2) / (1.0 + r / 2)) ** 2
        return abs(fine + (fine - coarse) / 3.0 - math.exp(-2.0 * r))

    # (r, the larger node estimate, w (1 - w) / 2, the larger second difference):
    # between nodes 1 and 2; in the first cell, where node 1 stands in for
    # node 0; on node 2, the lower end of its cell; at r_max, in the last
    # cell with w = 1
    for r, node, weight, curvature in ((0.375, 3e-3, 0.125, 0.2), (0.0625, 2e-3, 0.09375, 0.1),
                                       (0.5, 4e-3, 0.0, 0.2), (1.0, 5e-3, 0.0, 0.1)):
        assert fd_error_at(sol, r) == pytest.approx(node + scalar(r) + weight * curvature,
                                                    rel=1e-12), r


def test_fd_error_at_refuses_a_single_march_and_a_rate_off_the_grid(cir_model):
    single = fd_solve(cir_model, 1.0, FDGrid(r_max=0.5, n_r=10, n_t=4))
    with pytest.raises(DomainError, match="single march has no Richardson error estimate"):
        fd_error_at(single, 0.05)
    # off the grid, the estimate refuses with fd_price_at's message
    sol = fd_solve(cir_model, 1.0, FDGrid(r_max=0.5, n_r=10, n_t=4, richardson=True))
    for r in (0.51, -0.01, math.nan):
        with pytest.raises(DomainError) as price_refusal:
            fd_price_at(sol, r)
        with pytest.raises(DomainError, match="outside the grid") as estimate_refusal:
            fd_error_at(sol, r)
        assert str(estimate_refusal.value) == str(price_refusal.value)


# 0.0537 lies between the nodes of the former default, 2000 cells over [0, 0.5]
@pytest.mark.parametrize("r,tau", [(0.035, 10.0), (0.0537, 1.0), (0.0537, 5.0), (0.013, 2.5),
                                   (0.2, 1.0), (0.001, 0.3), (1.7, 1e-4), (0.05, 1e3)])
def test_default_grid_choices(r, tau):
    g = default_grid(r, tau)
    assert g.richardson
    assert g.r_max >= max(10.0 * r, 0.5)
    # the query rate is a node of the coarse grid, and so of its halving
    k = r / g.h
    assert k >= 1.0 and abs(k - round(k)) <= 1e-9
    assert fdsolver._BASE_CELLS * 2 // 3 <= g.n_r <= 2 * fdsolver._BASE_CELLS
    assert g.n_t == max(1, min(round(fdsolver._STEPS_PER_YEAR * tau), fdsolver._MAX_STEPS))


def test_default_grid_keeps_n_r_bounded_near_zero():
    # a rate under half a base cell keeps the base cells and is interpolated;
    # putting 1e-9 on a node would take 5e8 cells
    for r in (0.0, 1e-9, 0.2 / fdsolver._BASE_CELLS):
        g = default_grid(r, 1.0)
        assert g.n_r == fdsolver._BASE_CELLS and g.r_max == 0.5
    # just past half a cell the rate is node 1: at most twice the base cells
    g = default_grid(0.26 / fdsolver._BASE_CELLS, 1.0)
    assert g.n_r <= 2 * fdsolver._BASE_CELLS
    assert 0.26 / fdsolver._BASE_CELLS / g.h == pytest.approx(1.0, abs=1e-9)


def test_default_grid_checkpoints_at_quarter_years(cir_model):
    grid = default_grid(0.05, 2.5)
    sols = fd_solve_path(cir_model, [0.25, 1.0, 2.5], grid)
    assert sorted(sols) == [0.25, 1.0, 2.5]
    for tau, sol in sols.items():
        single = fd_solve(cir_model, tau, default_grid(0.05, tau))
        assert np.array_equal(sol.values, single.values)
        assert np.array_equal(sol.error, single.error)


@pytest.mark.parametrize("model_name", PATH_MODELS)
def test_richardson_grid_extrapolates_two_single_marches(model_name):
    model = PATH_MODELS[model_name]
    grid = FDGrid(r_max=0.5, n_r=20, n_t=8, richardson=True)
    coarse = fd_solve(model, 2.0, replace(grid, richardson=False)).values
    fine = fd_solve(model, 2.0, FDGrid(0.5, 40, 16)).values[::2]
    sol = fd_solve(model, 2.0, grid)
    # Crank-Nicolson is second order: 2^2 - 1 = 3
    assert np.array_equal(sol.values, fine + (fine - coarse) / 3.0)
    assert np.array_equal(sol.error, np.abs(fine - coarse) / 3.0)
    assert fd_solve(model, 2.0, replace(grid, richardson=False)).error is None
    assert np.array_equal(fd_solve(model, 0.0, grid).error, np.zeros(21))


@pytest.mark.parametrize("r", [0.013, 0.05, 0.2])
@pytest.mark.parametrize("tau", [1.0, 5.0, 10.0, 30.0])
def test_richardson_estimate_bounds_cir_error(cir_model, cir_params, r, tau):
    grid = default_grid(r, tau)
    sol = fd_solve(cir_model, tau, grid)
    error = abs(fd_price_at(sol, r) - cir_exact_price(cir_params, tau, r))
    # measured: at most 0.24 of the estimate (r = 0.05, tau = 5), 0.23 at
    # tau = 30
    assert error <= sol.error[round(r / grid.h)]


def test_default_grid_no_worse_than_single_fine_march(cir_model, cir_params):
    # the errors of the former default, one march of 2000 cells and 1000 steps
    # per unit maturity, by (r, tau)
    old = {(0.05, 1.0): 1.72e-11, (0.05, 5.0): 1.71e-09, (0.05, 10.0): 6.66e-08,
           (0.013, 1.0): 3.52e-11, (0.013, 5.0): 6.01e-08, (0.013, 10.0): 5.94e-07}
    for (r, tau), bound in old.items():
        sol = fd_solve(cir_model, tau, default_grid(r, tau))
        assert abs(fd_price_at(sol, r) - cir_exact_price(cir_params, tau, r)) <= bound


@pytest.mark.parametrize("kwargs", [
    dict(r_max=0.0, n_r=10, n_t=10),
    dict(r_max=-1.0, n_r=10, n_t=10),
    dict(r_max=0.5, n_r=2, n_t=10),
    dict(r_max=0.5, n_r=10, n_t=0),
    dict(r_max=math.inf, n_r=10, n_t=10),
    dict(r_max=math.nan, n_r=10, n_t=10),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        FDGrid(**kwargs)


def test_richardson_mark_is_keyword_only():
    # a stale fourth positional argument (once theta) must not become the mark
    with pytest.raises(TypeError):
        FDGrid(0.5, 10, 10, 0.5)
    assert FDGrid(0.5, 10, 10, richardson=True).richardson


@pytest.mark.parametrize("config", ["cir", "dothan_s2_0.02"])
@pytest.mark.parametrize("r", [0.013, 0.05])
def test_doubling_r_max_moves_price_under_half_ulp(config, r):
    # the truncation at r_max = 10 r against 20 r, h kept: the price at the
    # query rate moves by less than half the printed last digit.  Measured:
    # at most 1.54e-7 at tau = 30 (dothan, r = 0.05), 4.4e-9 at tau = 10
    model = parse_model_config(CONFIGS / f"{config}.cfg")
    grid = default_grid(r, 30.0)  # dtau = 1/40, so tau = 10 is a checkpoint
    wide = replace(grid, r_max=2 * grid.r_max, n_r=2 * grid.n_r)
    assert wide.h == grid.h
    near = fd_solve_path(model, [10.0, 30.0], grid)
    far = fd_solve_path(model, [10.0, 30.0], wide)
    for tau in (10.0, 30.0):
        assert abs(fd_price_at(near[tau], r) - fd_price_at(far[tau], r)) < 5e-7


@pytest.mark.parametrize("model_name", PATH_MODELS)
def test_fd_solve_path_matches_single_solves(model_name):
    model = PATH_MODELS[model_name]
    grid = FDGrid(r_max=0.5, n_r=10, n_t=40)
    sols = fd_solve_path(model, [1.0, 2.0, 4.0], grid)
    assert sorted(sols) == [1.0, 2.0, 4.0]
    for tau, sol in sols.items():
        # same dtau=0.1 march, so values agree bit for bit
        single = fd_solve(model, tau, replace(grid, n_t=int(10 * tau)))
        assert np.array_equal(sol.values, single.values)
    # two maturities on one step both come back, with that step's profile
    near = fd_solve_path(model, [1.0, 1.0 + 1e-12, 2.0], grid)
    assert sorted(near) == [1.0, 1.0 + 1e-12, 2.0]
    single = fd_solve(model, 1.0, replace(grid, n_t=20))
    assert np.array_equal(near[1.0].values, single.values)
    assert np.array_equal(near[1.0 + 1e-12].values, single.values)
    assert near[1.0 + 1e-12].tau_final == 1.0 + 1e-12


def _dense_operator(model, grid):
    """L written out node by node as a full matrix, from the module docstring."""
    n = grid.n_r + 1
    h = grid.h
    r = [j * h for j in range(n)]
    mu = [sum(c * x ** p for c, p in model.drift.terms) for x in r]
    s2 = [sum(c * x ** p for c, p in model.vol2.terms) for x in r]
    L = np.zeros((n, n))
    L[0, 0], L[0, 1] = -mu[0] / h, mu[0] / h
    for j in range(1, n - 1):
        L[j, j - 1] = s2[j] / (2 * h * h) - mu[j] / (2 * h)
        L[j, j] = -s2[j] / (h * h) - r[j]
        L[j, j + 1] = s2[j] / (2 * h * h) + mu[j] / (2 * h)
    L[-1, -2], L[-1, -1] = -mu[-1] / h, mu[-1] / h - r[-1]
    return L


@pytest.mark.parametrize("model_name", PATH_MODELS)
def test_march_matches_dense_crank_nicolson(model_name):
    # an independent dense solve catches a band stored in the wrong row or
    # shifted by one column, which single-vs-path agreement cannot
    model = PATH_MODELS[model_name]
    grid = FDGrid(r_max=0.5, n_r=12, n_t=3)
    dtau = 0.6 / grid.n_t
    L = _dense_operator(model, grid)
    eye = np.eye(grid.n_r + 1)
    implicit = eye - 0.5 * dtau * L
    explicit = eye + 0.5 * dtau * L
    values = np.ones(grid.n_r + 1)
    for _ in range(grid.n_t):
        values = np.linalg.solve(implicit, explicit @ values)
    sol = fd_solve(model, 0.6, grid)
    assert np.allclose(sol.values, values, rtol=1e-13, atol=1e-15)


def _banded_solve_march(model, taus, grid):
    """The march with one scipy solve_banded (LAPACK dgtsv) call per step,
    which refactors the halved implicit matrix every time."""
    dtau = taus[-1] / grid.n_t
    L = fdsolver._operator(model, grid)
    ab = -0.25 * dtau * L
    ab[1] += 0.5
    wanted = {round(tau / dtau): tau for tau in taus}
    values = np.ones(grid.n_r + 1)
    out = {}
    for step in range(1, grid.n_t + 1):
        values = solve_banded((1, 1), ab, values, check_finite=False) - values
        if step in wanted:
            out[wanted[step]] = values
    return out


@pytest.mark.parametrize("model_name", PATH_MODELS)
def test_factored_march_is_bit_identical_to_banded_solves(model_name):
    # dgttrf + dgttrs run the same partial-pivot elimination as dgtsv, so
    # factoring once changes no bit of any profile
    model = PATH_MODELS[model_name]
    grid = FDGrid(r_max=0.5, n_r=60, n_t=40)
    taus = [0.5, 1.25, 2.0]
    reference = _banded_solve_march(model, taus, grid)
    sol = fd_solve(model, 2.0, grid)
    assert np.array_equal(sol.values, reference[2.0])
    path = fd_solve_path(model, taus, grid)
    assert sorted(path) == taus
    for tau in taus:
        assert np.array_equal(path[tau].values, reference[tau])


def _explicit_matvec_march(model, tau, grid):
    """Crank-Nicolson as written, (I - (dtau / 2) L) P' = (I + (dtau / 2) L) P:
    a banded matvec for the right-hand side, then a solve_banded solve."""
    dtau = tau / grid.n_t
    L = fdsolver._operator(model, grid)
    ab = -0.5 * dtau * L
    ab[1] += 1.0
    ex = 0.5 * dtau * L
    ex[1] += 1.0
    values = np.ones(grid.n_r + 1)
    for _ in range(grid.n_t):
        rhs = ex[1] * values
        rhs[:-1] += ex[0, 1:] * values[1:]
        rhs[1:] += ex[2, :-1] * values[:-1]
        values = solve_banded((1, 1), ab, rhs, check_finite=False)
    return values


_DEFAULT_COARSE = replace(default_grid(0.05, 1.0), richardson=False)


# a default grid marches at both levels; Richardson then combines the two
@pytest.mark.parametrize("grid", [
    FDGrid(0.5, 100, 50), _DEFAULT_COARSE,
    replace(_DEFAULT_COARSE, n_r=2 * _DEFAULT_COARSE.n_r, n_t=2 * _DEFAULT_COARSE.n_t),
], ids=["100x50", "default-coarse", "default-fine"])
@pytest.mark.parametrize("model_name", PATH_MODELS)
def test_march_matches_explicit_matvec_step(model_name, grid):
    # 2 A^-1 P - P and A^-1 (I + (dtau / 2) L) P differ by rounding only.
    # Measured: at most 7.8e-15 on 100 x 50, 4.3e-14 on the fine level (cir)
    model = PATH_MODELS[model_name]
    reference = _explicit_matvec_march(model, 1.0, grid)
    assert np.max(np.abs(fd_solve(model, 1.0, grid).values - reference)) <= 5e-14


def _decimal_march(model, tau, grid):
    """The march of the same double operator L in 40-digit decimal arithmetic,
    a Thomas (unpivoted) elimination of I - (dtau / 2) L and the explicit
    right-hand side, so what is left is the float march's rounding."""
    with localcontext() as ctx:
        ctx.prec = 40
        half = Decimal(tau / grid.n_t) / 2
        bands = fdsolver._operator(model, grid).tolist()
        up, dia, lo = ([half * Decimal(x) for x in band] for band in bands)
        # row i of (dtau / 2) L: sub[i] P[i-1] + dia[i] P[i] + sup[i] P[i+1]
        sub, sup = [Decimal(0)] + lo[:-1], up[1:] + [Decimal(0)]
        n = len(dia)
        mult, piv = [Decimal(0)], [1 - dia[0]]
        for i in range(1, n):
            mult.append(-sub[i] / piv[-1])
            piv.append(1 - dia[i] + mult[i] * sup[i - 1])
        values = [Decimal(1)] * n
        for _ in range(grid.n_t):
            padded = [Decimal(0)] + values + [Decimal(0)]
            y = [sub[i] * padded[i] + (1 + dia[i]) * padded[i + 1] + sup[i] * padded[i + 2]
                 for i in range(n)]
            for i in range(1, n):
                y[i] -= mult[i] * y[i - 1]
            values[-1] = y[-1] / piv[-1]
            for i in range(n - 2, -1, -1):
                values[i] = (y[i] + sup[i] * values[i + 1]) / piv[i]
    return np.array([float(v) for v in values])


@pytest.mark.parametrize("model_name", PATH_MODELS)
def test_march_rounding_against_decimal_march(model_name):
    # measured max |fd - ref|: 1.0e-14 (zero), 1.5e-14 (ckls), 4.1e-15 (cir),
    # 1.0e-14 (dothan); the explicit-matvec step has 5.1e-15, 7.2e-15, 3.2e-15
    # and 6.3e-15
    model = PATH_MODELS[model_name]
    grid = FDGrid(0.5, 100, 50)
    reference = _decimal_march(model, 1.0, grid)
    assert np.max(np.abs(fd_solve(model, 1.0, grid).values - reference)) <= 5e-14


@pytest.mark.parametrize("tau", [math.inf, math.nan, -0.5])
def test_non_finite_maturity_rejected(zero_model, tau):
    msg = "nonnegative and finite"
    with pytest.raises(DomainError, match=msg):
        default_grid(0.05, tau)
    with pytest.raises(DomainError, match=msg):
        fd_solve(zero_model, tau, FDGrid(r_max=0.5, n_r=10, n_t=4))
    with pytest.raises(DomainError, match="positive and finite"):
        fd_solve_path(zero_model, [1.0, tau], FDGrid(r_max=0.5, n_r=10, n_t=4))


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_default_grid_rejects_non_finite_rate(r):
    with pytest.raises(DomainError, match="finite"):
        default_grid(r, 1.0)


def test_fd_solve_path_alignment_guard(zero_model):
    grid = FDGrid(r_max=0.5, n_r=10, n_t=30)
    with pytest.raises(DomainError, match="align"):
        fd_solve_path(zero_model, [0.71, 1.0], grid)
    with pytest.raises(DomainError):
        fd_solve_path(zero_model, [0.0, 1.0], grid)
    with pytest.raises(DomainError, match="align"):   # rounds to step 0
        fd_solve_path(zero_model, [1e-12, 1.0], grid)
    assert fd_solve_path(zero_model, [], grid) == {}


def test_negative_exponent_model_rejected_on_grid():
    # r^-1 drift cannot be evaluated at the r=0 node
    model = make_custom([(1.0, -1.0)], [])
    with pytest.raises(DomainError):
        fd_solve(model, 1.0, FDGrid(r_max=0.5, n_r=10, n_t=4))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_march_reports_step(cir_model, nan_at_step, value):
    nan_at_step(84, value)
    with pytest.raises(DomainError, match=r"^non-finite values at step 84 of 100$"):
        fd_solve(cir_model, 1.0, FDGrid(r_max=0.5, n_r=10, n_t=100))


def test_singular_implicit_matrix_is_domain_error(zero_model, monkeypatch):
    def zero_pivot(dl, d, du):
        return dl, d, du, du[:-1], np.zeros(len(d), dtype=np.int32), 3
    monkeypatch.setattr(fdsolver.lapack, "dgttrf", zero_pivot)
    with pytest.raises(DomainError, match="singular tridiagonal matrix"):
        fd_solve(zero_model, 1.0, FDGrid(r_max=0.5, n_r=10, n_t=4))


@pytest.mark.parametrize("model_name", ["cir", "dothan"])
def test_convergence_orders_crank_nicolson(model_name):
    # measured: 2.0004 (cir) and 1.9987 (dothan)
    base = FDGrid(r_max=0.5, n_r=250, n_t=250)
    study = convergence_study(PATH_MODELS[model_name], 1.0, 0.05, base, levels=3)
    assert len(study.values) == 3
    assert len(study.orders) == 1
    assert study.orders[0] >= 1.8


def test_convergence_zero_model_roundoff(zero_model):
    base = FDGrid(r_max=0.5, n_r=10, n_t=200)
    study = convergence_study(zero_model, 1.0, 0.05, base, levels=3)
    assert all(abs(value - study.reference) <= 1e-9 for value in study.values)


def test_convergence_levels_march_the_halved_base_once(cir_model):
    base = FDGrid(r_max=0.1, n_r=10, n_t=20)
    study = convergence_study(cir_model, 1.0, 0.05, base, levels=3)
    finest = FDGrid(r_max=0.1, n_r=40, n_t=80)
    assert study.values[-1] == fd_price_at(fd_solve(cir_model, 1.0, finest), 0.05)
    # each level marches once, whether or not the base is marked for Richardson
    assert convergence_study(cir_model, 1.0, 0.05, replace(base, richardson=True), 3) == study


def test_convergence_needs_two_levels(cir_model):
    with pytest.raises(ValueError):
        convergence_study(cir_model, 1.0, 0.05, FDGrid(0.5, 10, 10), levels=1)


def test_initial_condition_limit(cir_model):
    # tau -> 0 returns to par uniformly
    sol = fd_solve(cir_model, 1e-4, FDGrid(r_max=0.5, n_r=200, n_t=10))
    assert float(np.max(np.abs(sol.values - 1.0))) <= 1e-4
