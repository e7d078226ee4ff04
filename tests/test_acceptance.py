"""End-to-end acceptance checks against the published benchmark numbers.

One test per criterion; each prints a single PASS/FAIL line, so
`pytest tests/test_acceptance.py -v -s` gives a compact scoreboard.
"""

import importlib.util
import math
import random
from pathlib import Path

import pytest

from bondtaylor import genpoly as gp
from bondtaylor.closedform import cir_exact_price
from bondtaylor.fdsolver import FDGrid, default_grid, fd_price_at, fd_solve
from bondtaylor.model import CIRParams, parse_model_config
from bondtaylor.series import log_coeffs, partial_sums, price_coeffs
from bondtaylor.tables import build_table
from reference import approx_equal, exp_compose, pairs, pde_residual

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "fd_convergence.py"
_SPEC = importlib.util.spec_from_file_location("fd_convergence", _PATH)
fd_convergence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fd_convergence)

CIR = CIRParams(alpha=0.00315, beta=-0.0555, sigma=0.0894)
R0 = 0.05

# half an ulp of the printed decimals, padded for cells that land exactly on
# a rounding boundary
TOL6 = 5e-7 + 1e-12


def _verdict(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    print(line)
    assert ok, line + (f"  [{detail}]" if detail else "")


def test_criterion_1_cir_closed_form_cells():
    refs = {0.25: 0.987567, 0.5: 0.975273, 0.75: 0.963120, 1.0: 0.951115,
            1.5: 0.927559, 2.0: 0.904626, 2.5: 0.882334, 3.0: 0.860691,
            4.0: 0.819367, 5.0: 0.780631}
    worst = max(abs(cir_exact_price(CIR, tau, R0) - ref)
                for tau, ref in refs.items())
    _verdict(1, "CIR closed form reproduces all 10 exact-column cells "
                "to 6 decimals", worst <= 5e-7, f"worst |diff| = {worst:.3e}")


def test_criterion_2_cir_partial_sum_convergence():
    report = build_table("cir-converge")
    ok = report.passed and report.counts() == (16, 0, 0)
    _verdict(2, "CIR price and log-price partial sums (J=0..7, tau=1) match "
                "to 6 decimals", ok, f"counts = {report.counts()}")


def test_criterion_3_cir_taylor_columns():
    report = build_table("cir-price")
    cells = [c for c in report.cells if c.column.startswith("taylor")]
    ok = len(cells) == 30
    for c in cells:
        if c.flagged:
            # the misprinted cell is checked against the corrected value
            ok = ok and c.reference == 0.860691 and c.deviation <= TOL6
        else:
            ok = ok and c.status == "PASS"
    _verdict(3, "CIR Taylor order-4/5/6 columns match to 6 decimals "
                "(tau=3 order-6 cell vs corrected 0.860691)", ok)


def test_criterion_4_cir_yield_columns():
    report = build_table("cir-yield")
    ok = report.passed and report.counts() == (40, 0, 0)
    _verdict(4, "CIR yield columns (exact and orders 4/5/6) match to "
                "5 decimals in percent", ok, f"counts = {report.counts()}")


def test_criterion_5_dothan_partial_sum_convergence():
    report = build_table("dothan-converge")
    ok = report.passed and report.counts() == (16, 0, 0)
    _verdict(5, "Dothan price and log-price partial sums (J=0..7, tau=3) "
                "match to 6 decimals", ok, f"counts = {report.counts()}")


def test_criterion_6_dothan_grid(built_table):
    report = built_table("dothan-grid")
    plain_ok = all(c.status == "PASS" for c in report.cells if not c.flagged)
    # the two misprinted cells carry no reference; the recursion values are
    # frozen here so a regression still trips the check
    series_refs = {("sigma2=0.02 tau=5", "taylor_j3"): 83.810677,
                   ("sigma2=0.02 tau=10", "taylor_j3"): 70.235417}
    flagged = {(c.row, c.column): c for c in report.cells if c.flagged}
    flag_ok = set(flagged) == set(series_refs) and all(
        c.reference is None and abs(c.computed - series_refs[key]) <= 5e-5
        for key, c in flagged.items())
    # printed exact column vs the fd oracle, 2e-5 on the unit scale
    exact_ok = all(c.deviation <= 2e-3
                   for c in report.cells if c.column == "exact")
    ok = plain_ok and flag_ok and exact_ok
    _verdict(6, "Dothan grid (J=3/5/7 and exact columns) matches to "
                "4 decimals, misprinted cells reported from the recursion",
             ok, f"plain={plain_ok} flagged={flag_ok} exact_vs_fd={exact_ok}")


def test_criterion_7_residual_vanishes_for_random_models(random_model_factory):
    rng = random.Random(1234)
    worst = max(max(pde_residual(price_coeffs(random_model_factory(rng), 8)))
                for _ in range(50))
    _verdict(7, "PDE residual of the order-8 price series, in exact "
                "arithmetic, vanishes to rounding through tau^7 for 50 random "
                "polynomial models", worst < 1e-14,
             f"worst relative residual = {worst:.3e}")


def test_criterion_8_exp_log_identity(cir_model, dothan02_model,
                                      random_model_factory):
    rng = random.Random(77)
    models = [cir_model, dothan02_model]
    models += [random_model_factory(rng) for _ in range(10)]
    worst = 0.0
    for model in models:
        composed = exp_compose(log_coeffs(model, 8))
        direct = price_coeffs(model, 8)
        for _ in range(20):
            tau = rng.uniform(0.0, 1.0)
            r = rng.uniform(0.01, 0.2)
            a = partial_sums(composed, tau, r)[-1]
            b = partial_sums(direct, tau, r)[-1]
            worst = max(worst, abs(a - b) / abs(b))
    _verdict(8, "exp of the log series agrees with the price series to "
                "1e-9 relative on random (tau, r) points", worst <= 1e-9,
             f"worst relative gap = {worst:.3e}")


def test_criterion_9_log_coefficients_match_hand_formulas(cir_model):
    a, b, s2 = CIR.alpha, CIR.beta, CIR.sigma ** 2
    c3 = gp.canonicalize([(-b * a / 6, 0.0), ((-b * b + s2) / 6, 1.0)])
    c4 = gp.canonicalize([(a * (s2 - b * b) / 24, 0.0),
                          ((3 * b * s2 + b * (s2 - b * b)) / 24, 1.0)])
    c5 = gp.canonicalize([(b * a * (4 * s2 - b * b) / 120, 0.0),
                          ((s2 * (7 * b * b - 4 * s2)
                            + b * b * (4 * s2 - b * b)) / 120, 1.0)])
    s = log_coeffs(cir_model, 5)
    ok = all(approx_equal(s.coeffs[k], ref, 1e-12)
             for k, ref in zip((3, 4, 5), (c3, c4, c5)))
    _verdict(9, "recursion reproduces the hand-derived CIR log coefficients "
                "c3, c4, c5 (tol 1e-12)", ok)


def test_criterion_10_fd_oracle_quality(cir_model):
    study = fd_convergence.convergence_study(cir_model, 1.0, R0,
                                             FDGrid(0.5, 250, 250), levels=4)
    order_ok = min(study.orders) >= 1.8
    errs = []
    for tau in (1.0, 5.0):
        sol = fd_solve(cir_model, tau, default_grid(R0, tau))
        errs.append(abs(fd_price_at(sol, R0) - cir_exact_price(CIR, tau, R0)))
    fd_ok = max(errs) <= 1e-5
    _verdict(10, "Crank-Nicolson order >= 1.8 over 3 halvings and default "
                 "grid within 1e-5 of the closed form at tau=1, 5",
             order_ok and fd_ok,
             f"orders = {study.orders}, errors = {[f'{e:.2e}' for e in errs]}")


def test_criterion_11_zero_model_exactness(zero_model):
    s = price_coeffs(zero_model, 8)
    ok = True
    factorial = 1.0
    for k, c in enumerate(s.coeffs):
        if k > 0:
            factorial *= k
        want = (-1.0) ** k / factorial
        ok = (ok and len(c.terms) == 1 and pairs(c)[0][1] == float(k)
              and abs(c.terms[0][0] - want) <= 1e-15)
    sol = fd_solve(zero_model, 1.0, FDGrid(0.5, 10, 200))
    fd_err = abs(fd_price_at(sol, R0) - math.exp(-R0))
    _verdict(11, "zero model: series coefficients are (-r)^k/k! and fd price "
                 "is e^(-r tau) within 1e-8", ok and fd_err <= 1e-8,
             f"fd error = {fd_err:.3e}")


def _vasicek_log_price(a, b, s2, tau, r):
    """ln P for dr = (a + b r) dt + sqrt(s2) dW, b < 0 (Vasicek, J. Financial
    Economics 5, 1977): ln P = ln A - B r with B = (1 - e^{-k tau}) / k and
    ln A = (theta - s2 / (2 k^2)) (B - tau) - s2 B^2 / (4 k), k = -b,
    theta = a / k."""
    k = -b
    theta = a / k
    big_b = -math.expm1(-k * tau) / k
    return (theta - s2 / (2 * k * k)) * (big_b - tau) - s2 * big_b * big_b / (4 * k) - big_b * r


def test_criterion_12_vasicek_closed_form():
    cfg = Path(__file__).resolve().parents[1] / "configs" / "vasicek.cfg"
    model = parse_model_config(cfg)
    (a, _), (b, _) = model.drift.terms
    (s2, _), = model.vol2.terms
    log_s, price_s = log_coeffs(model, 20), price_coeffs(model, 20)
    log_err = price_err = 0.0
    for r in (0.005, 0.02, 0.05, 0.1):  # rate-outer, as the series reuses c_k(r)
        for tau in (0.25, 1.0, 2.0, 3.0, 5.0):
            want = _vasicek_log_price(a, b, s2, tau, r)
            log_err = max(log_err, abs(partial_sums(log_s, tau, r)[-1] - want))
            price_err = max(price_err, abs(partial_sums(price_s, tau, r)[-1] - math.exp(want)))
    _verdict(12, "vasicek.cfg: order-20 log and price series match the Vasicek "
                 "closed form within 1e-12", log_err <= 1e-12 and price_err <= 1e-12,
             f"log error = {log_err:.2e}, price error = {price_err:.2e}")
