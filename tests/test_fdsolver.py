import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from bondtaylor import fdsolver
from bondtaylor.closedform import cir_exact_price
from bondtaylor.errors import DomainError
from bondtaylor.fdsolver import (UPPER_BOUNDARIES, FDGrid, FDSolution,
                                 convergence_study, default_grid, fd_price_at,
                                 fd_solve, fd_solve_path)
from bondtaylor.model import (CIRParams, DothanParams, make_cir, make_ckls,
                              make_custom, make_dothan)


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


# 0.0537 lies between the nodes of the former default, 2000 cells over [0, 0.5]
@pytest.mark.parametrize("r,tau", [(0.035, 10.0), (0.0537, 1.0), (0.0537, 5.0), (0.013, 2.5),
                                   (0.2, 1.0), (0.001, 0.3), (1.7, 1e-4), (0.05, 1e3)])
def test_default_grid_choices(r, tau):
    g = default_grid(r, tau)
    assert g.richardson and g.theta == 0.5
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


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_richardson_grid_extrapolates_two_single_marches(theta):
    model = PATH_MODELS["ckls"]
    grid = FDGrid(r_max=0.5, n_r=20, n_t=8, theta=theta, richardson=True)
    coarse = fd_solve(model, 2.0, replace(grid, richardson=False)).values
    fine = fd_solve(model, 2.0, FDGrid(0.5, 40, 16, theta)).values[::2]
    denom = 3.0 if theta == 0.5 else 1.0
    sol = fd_solve(model, 2.0, grid)
    assert np.array_equal(sol.values, fine + (fine - coarse) / denom)
    assert np.array_equal(sol.error, np.abs(fine - coarse) / denom)
    assert fd_solve(model, 2.0, replace(grid, richardson=False)).error is None
    assert np.array_equal(fd_solve(model, 0.0, grid).error, np.zeros(21))


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("r", [0.013, 0.05])
@pytest.mark.parametrize("tau", [1.0, 5.0, 10.0])
def test_richardson_estimate_bounds_cir_error(cir_model, cir_params, theta, r, tau):
    grid = replace(default_grid(r, tau), theta=theta)
    sol = fd_solve(cir_model, tau, grid)
    error = abs(fd_price_at(sol, r) - cir_exact_price(cir_params, tau, r))
    # measured: at most 0.37 of the estimate (theta = 1, r = 0.013, tau = 10)
    assert error <= sol.error[round(r / grid.h)]


def test_default_grid_no_worse_than_single_fine_march(cir_model, cir_params):
    # the errors of the former default, one march of 2000 cells and 1000 steps
    # per unit maturity, by (theta, r, tau)
    old = {(0.5, 0.05, 1.0): 1.72e-11, (0.5, 0.05, 5.0): 1.71e-09, (0.5, 0.05, 10.0): 6.66e-08,
           (0.5, 0.013, 1.0): 3.52e-11, (0.5, 0.013, 5.0): 6.01e-08, (0.5, 0.013, 10.0): 5.94e-07,
           (1.0, 0.05, 1.0): 1.20e-06, (1.0, 0.05, 5.0): 6.28e-06, (1.0, 0.05, 10.0): 8.92e-06}
    for (theta, r, tau), bound in old.items():
        sol = fd_solve(cir_model, tau, replace(default_grid(r, tau), theta=theta))
        assert abs(fd_price_at(sol, r) - cir_exact_price(cir_params, tau, r)) <= bound


@pytest.mark.parametrize("kwargs", [
    dict(r_max=0.0, n_r=10, n_t=10),
    dict(r_max=-1.0, n_r=10, n_t=10),
    dict(r_max=0.5, n_r=2, n_t=10),
    dict(r_max=0.5, n_r=10, n_t=0),
    dict(r_max=0.5, n_r=10, n_t=10, theta=1.5),
    dict(r_max=math.inf, n_r=10, n_t=10),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        FDGrid(**kwargs)


def test_upper_boundary_options(cir_model, cir_params):
    grid = FDGrid(r_max=0.5, n_r=1000, n_t=1000)
    lin = fd_price_at(fd_solve(cir_model, 1.0, grid, "linearity"), 0.05)
    dir0 = fd_price_at(fd_solve(cir_model, 1.0, grid, "dirichlet0"), 0.05)
    exact = cir_exact_price(cir_params, 1.0, 0.05)
    # far from the boundary both choices agree with the closed form
    assert abs(lin - exact) <= 1e-5
    assert abs(dir0 - exact) <= 1e-5
    with pytest.raises(ValueError):
        fd_solve(cir_model, 1.0, grid, "reflecting")


# the zero model has mu = s2 = 0, so only the CKLS model (fractional gamma)
# puts nonzero entries in the off-diagonal bands
PATH_MODELS = {"zero": make_custom([], []),
               "ckls": make_ckls(0.01, -0.2, 0.1, 0.75)}


@pytest.mark.parametrize("model_name,upper_boundary",
                         [pytest.param("zero", ub, id=ub) for ub in UPPER_BOUNDARIES]
                         + [pytest.param("ckls", ub, id=f"ckls-{ub}")
                            for ub in UPPER_BOUNDARIES])
def test_fd_solve_path_matches_single_solves(model_name, upper_boundary):
    model = PATH_MODELS[model_name]
    grid = FDGrid(r_max=0.5, n_r=10, n_t=40)
    sols = fd_solve_path(model, [1.0, 2.0, 4.0], grid, upper_boundary)
    assert sorted(sols) == [1.0, 2.0, 4.0]
    for tau, sol in sols.items():
        # same dtau=0.1 march, so values agree bit for bit
        single = fd_solve(model, tau, FDGrid(0.5, 10, int(10 * tau)),
                          upper_boundary)
        assert np.array_equal(sol.values, single.values)
        if upper_boundary == "dirichlet0":
            assert sol.values[-1] == 0.0
    # two maturities on one step both come back, with that step's profile
    near = fd_solve_path(model, [1.0, 1.0 + 1e-12, 2.0], grid, upper_boundary)
    assert sorted(near) == [1.0, 1.0 + 1e-12, 2.0]
    single = fd_solve(model, 1.0, FDGrid(0.5, 10, 20), upper_boundary)
    assert np.array_equal(near[1.0].values, single.values)
    assert np.array_equal(near[1.0 + 1e-12].values, single.values)
    assert near[1.0 + 1e-12].tau_final == 1.0 + 1e-12


def _dense_operator(model, grid, upper_boundary):
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
    if upper_boundary == "linearity":
        L[-1, -2], L[-1, -1] = -mu[-1] / h, mu[-1] / h - r[-1]
    return L


@pytest.mark.parametrize("upper_boundary", UPPER_BOUNDARIES)
@pytest.mark.parametrize("theta", [0.5, 0.7, 1.0])
def test_march_matches_dense_theta_scheme(upper_boundary, theta):
    # an independent dense solve catches a band stored in the wrong row or
    # shifted by one column, which single-vs-path agreement cannot
    model = PATH_MODELS["ckls"]
    grid = FDGrid(r_max=0.5, n_r=12, n_t=3, theta=theta)
    dtau = 0.6 / grid.n_t
    L = _dense_operator(model, grid, upper_boundary)
    eye = np.eye(grid.n_r + 1)
    implicit = eye - theta * dtau * L
    explicit = eye + (1.0 - theta) * dtau * L
    if upper_boundary == "dirichlet0":
        explicit[-1] = 0.0
    values = np.ones(grid.n_r + 1)
    for _ in range(grid.n_t):
        values = np.linalg.solve(implicit, explicit @ values)
    sol = fd_solve(model, 0.6, grid, upper_boundary)
    assert np.allclose(sol.values, values, rtol=1e-13, atol=1e-15)


def _banded_solve_march(model, taus, grid, upper_boundary):
    """The march as it was with one scipy solve_banded (LAPACK dgtsv) call per
    step, which refactors the implicit matrix every time."""
    dtau = taus[-1] / grid.n_t
    L = fdsolver._operator(model, grid, upper_boundary)
    ab = -grid.theta * dtau * L
    ab[1] += 1.0
    ex = (1.0 - grid.theta) * dtau * L
    ex[1] += 1.0
    if upper_boundary == "dirichlet0":
        ex[1, -1] = 0.0
    wanted = {round(tau / dtau): tau for tau in taus}
    values = np.ones(grid.n_r + 1)
    out = {}
    for step in range(1, grid.n_t + 1):
        rhs = ex[1] * values
        rhs[:-1] += ex[0, 1:] * values[1:]
        rhs[1:] += ex[2, :-1] * values[:-1]
        values = solve_banded((1, 1), ab, rhs, check_finite=False)
        if step in wanted:
            out[wanted[step]] = values
    return out


@pytest.mark.parametrize("upper_boundary", UPPER_BOUNDARIES)
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("model", [make_cir(CIRParams(0.00315, -0.0555, 0.0894)),
                                   PATH_MODELS["ckls"]], ids=["cir", "ckls"])
def test_factored_march_is_bit_identical_to_banded_solves(model, theta, upper_boundary):
    # dgttrf + dgttrs run the same partial-pivot elimination as dgtsv, so
    # factoring once changes no bit of any profile
    grid = FDGrid(r_max=0.5, n_r=60, n_t=40, theta=theta)
    taus = [0.5, 1.25, 2.0]
    reference = _banded_solve_march(model, taus, grid, upper_boundary)
    sol = fd_solve(model, 2.0, grid, upper_boundary)
    assert np.array_equal(sol.values, reference[2.0])
    path = fd_solve_path(model, taus, grid, upper_boundary)
    assert sorted(path) == taus
    for tau in taus:
        assert np.array_equal(path[tau].values, reference[tau])


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


def test_non_finite_march_reports_step(zero_model):
    # the explicit scheme at dtau = 1e4 grows by about 5e3 a step and
    # overflows part way
    with pytest.raises(DomainError, match=r"^non-finite values at step 84 of 100$"):
        fd_solve(zero_model, 1e6, FDGrid(r_max=0.5, n_r=10, n_t=100, theta=0.0))


def test_singular_implicit_matrix_is_domain_error(zero_model, monkeypatch):
    def zero_pivot(dl, d, du):
        return dl, d, du, du[:-1], np.zeros(len(d), dtype=np.int32), 3
    monkeypatch.setattr(fdsolver.lapack, "dgttrf", zero_pivot)
    with pytest.raises(DomainError, match="singular tridiagonal matrix"):
        fd_solve(zero_model, 1.0, FDGrid(r_max=0.5, n_r=10, n_t=4))


def test_convergence_orders_crank_nicolson(cir_model):
    base = FDGrid(r_max=0.5, n_r=250, n_t=250, theta=0.5)
    study = convergence_study(cir_model, 1.0, 0.05, base, levels=3)
    assert len(study.values) == 3
    assert len(study.orders) == 1
    assert study.orders[0] >= 1.8


def test_convergence_orders_implicit_euler(cir_model):
    base = FDGrid(r_max=0.5, n_r=250, n_t=250, theta=1.0)
    study = convergence_study(cir_model, 1.0, 0.05, base, levels=3)
    assert study.orders[0] == pytest.approx(1.0, abs=0.3)


def test_convergence_zero_model_roundoff(zero_model):
    base = FDGrid(r_max=0.5, n_r=10, n_t=200, theta=0.5)
    study = convergence_study(zero_model, 1.0, 0.05, base, levels=3)
    assert all(abs(value - study.reference) <= 1e-9 for value in study.values)


def test_convergence_needs_two_levels(cir_model):
    with pytest.raises(ValueError):
        convergence_study(cir_model, 1.0, 0.05, FDGrid(0.5, 10, 10), levels=1)


def test_initial_condition_limit(cir_model):
    # tau -> 0 returns to par uniformly
    sol = fd_solve(cir_model, 1e-4, FDGrid(r_max=0.5, n_r=200, n_t=10))
    assert float(np.max(np.abs(sol.values - 1.0))) <= 1e-4
